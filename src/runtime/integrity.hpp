// End-to-end data-integrity layer for the serving stack (PR-10).
//
// Threat model: silent data corruption — bit flips in weight tiles, spike
// payloads in NoC transit, live membrane state — produces *wrong answers*,
// not exceptions. The fault-injection machinery (runtime/faults.hpp) can now
// plant exactly those flips deterministically; this header provides the
// defense: CRC32C seals on every dataflow domain boundary plus a
// redundant-execution mode for the state no seal can cover.
//
//   admission ──seal(image)──▶ wave formation ──verify──▶ layer 0
//        layer l ──seal(carry)──▶ cluster handoff ──verify──▶ layer l+1
//        last layer ──seal(output)──▶ completion (seal published to caller)
//
// A seal is computed on the producing side of a boundary and verified on the
// consuming side; corruption in between fails the verify with an
// IntegrityFault. IntegrityFault derives from TransientFault on purpose: the
// server's existing bounded-retry containment catches it, resets the wave's
// lanes and re-runs from timestep 0 — and because every injected data fault
// is undone (weights) or regenerated (spikes, membranes) between attempts,
// the retried wave completes bit-identical to an unfaulted one. Only when
// retries exhaust while mismatches persist do the wave's requests end in the
// kCorrupted terminal state (distinct from kError: the caller knows the
// failure was a detected-integrity one, not a crash).
//
// Membranes are live neuron state, rewritten every timestep — there is no
// producer/consumer boundary to seal. The redundant-lane mode covers them:
// the wave executes twice and the per-timestep output seals of the two
// passes must agree (on real hardware the passes land on disjoint clusters,
// so a localized SPM flip perturbs only one of them).
//
// Everything here is off by default and the checks are pure observers —
// with IntegrityConfig all-false no seal is computed, no counter moves and
// every historical spike stream and BENCH number stays bit-exact (the same
// contract arch::EccConfig and DramConfig::flat_legacy honor).
//
// The CRC itself is common::simd::crc32c — the SIMD-tiered Castagnoli engine
// (table / SSE4.2 / 3-stream interleaved) with the standard chaining
// identity, so seals are host-independent and tier-independent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/simd.hpp"
#include "runtime/faults.hpp"
#include "snn/network.hpp"
#include "snn/tensor.hpp"

namespace spikestream::runtime {

/// Detected data corruption: a checksum mismatch on a sealed boundary or a
/// redundant-lane divergence. Subclasses TransientFault so the server's
/// retry-with-backoff containment re-runs the wave; exhausted retries with
/// the mismatch persisting end the requests in kCorrupted.
class IntegrityFault : public TransientFault {
 public:
  explicit IntegrityFault(const std::string& what) : TransientFault(what) {}
};

/// CRC32C checksum + length of one sealed buffer. Two buffers with equal
/// seals are byte-identical up to CRC32C collision odds; the length guard
/// also catches truncation, which a bare CRC of a shorter prefix would not.
struct Seal {
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;

  bool operator==(const Seal& o) const {
    return crc == o.crc && bytes == o.bytes;
  }
  bool operator!=(const Seal& o) const { return !(*this == o); }
};

inline Seal seal_bytes(const void* data, std::size_t n) {
  return Seal{common::simd::crc32c(data, n), static_cast<std::uint64_t>(n)};
}

/// Seal a spike map's payload (the 0/1 bytes the consumer integrates).
inline Seal seal_spikes(const snn::SpikeMap& m) {
  return seal_bytes(m.v.data(), m.v.size() * sizeof(std::uint8_t));
}

/// Seal a dense float tensor (input images, membrane snapshots in tests).
inline Seal seal_tensor(const snn::Tensor& t) {
  return seal_bytes(t.v.data(), t.v.size() * sizeof(float));
}

/// Seal a layer's weight slice: the float buffer chained with the streamed
/// half-precision image (when present), so a flip in either representation
/// fails the verify.
Seal seal_weights(const snn::LayerWeights& w);

/// Protection switches for the serving path. All off by default — the
/// bit-exactness contract. crc_bytes_per_cycle prices the modeled checker
/// (a by-8 slice-by-3 CRC32C engine keeps up with the 64 B/cycle DMA port),
/// feeding ServerStats::crc_cycles so benches can report seal overhead.
struct IntegrityConfig {
  /// Seal spike-path boundaries: admission images, layer-to-layer carries,
  /// final outputs. Verified where the data is consumed; the completion seal
  /// is published on the request for the caller's own end-to-end check.
  bool checksum_spikes = false;
  /// Seal every layer's weight slice at server construction and verify
  /// before a wave attempt touches it (catches SPM weight-tile rot).
  bool checksum_weights = false;
  /// Verify the golden weight seals every Nth wave (1 = every wave). Weights
  /// are static, so re-hashing all slices per wave is the dominant checker
  /// cost on big nets; a longer period amortizes it scrub-style at the price
  /// of a detection window — a flip landing between verified waves is served
  /// before the next check catches the rot. Spike-path seals are unaffected
  /// (live data is always checked at every boundary).
  std::uint64_t weight_check_period = 1;
  /// Execute every wave twice and require the per-timestep output seals of
  /// the two passes to agree. The only defense that covers membrane state;
  /// costs ~2x compute. (ServeRequest::redundant opts a single request's
  /// wave in without flipping the global default.)
  bool redundant_lanes = false;
  /// Modeled CRC checker throughput (bytes/cycle) for the crc_cycles stat.
  double crc_bytes_per_cycle = 64.0;
};

// --- SDC injection primitives ----------------------------------------------
// The server uses these to realize FaultPlan data events. All three are
// involutive (a second identical call restores the buffer exactly), which is
// what makes injected faults retry-recoverable without snapshotting.

/// Flip one bit of one quantized weight of `w`, keeping the float and
/// half-precision representations consistent (when the half image is exact,
/// the flip lands in the streamed half bits and the float view is re-derived;
/// otherwise the float bits take the flip directly). `bit` is reduced mod
/// the representation's total bit count.
void flip_weight_bit(snn::LayerWeights& w, std::uint64_t bit);

/// Toggle one spike byte (0 <-> 1) of a carry map. `byte` reduced mod size.
void flip_spike_byte(snn::SpikeMap& m, std::uint64_t byte);

/// Flip one bit of one membrane potential. `bit` reduced mod the tensor's
/// total float-bit count.
void flip_membrane_bit(snn::Tensor& t, std::uint64_t bit);

}  // namespace spikestream::runtime

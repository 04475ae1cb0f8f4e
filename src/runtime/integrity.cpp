#include "runtime/integrity.hpp"

#include <cstring>

#include "common/float_formats.hpp"

namespace spikestream::runtime {

Seal seal_weights(const snn::LayerWeights& w) {
  const std::size_t float_bytes = w.v.size() * sizeof(float);
  std::uint32_t crc = common::simd::crc32c(w.v.data(), float_bytes);
  std::uint64_t bytes = float_bytes;
  if (w.half_exact && !w.half.empty()) {
    const std::size_t half_bytes = w.half.size() * sizeof(std::uint16_t);
    crc = common::simd::crc32c(w.half.data(), half_bytes, crc);
    bytes += half_bytes;
  }
  return Seal{crc, bytes};
}

void flip_weight_bit(snn::LayerWeights& w, std::uint64_t bit) {
  if (w.half_exact && !w.half.empty()) {
    // The streamed representation takes the hit; the float view is re-derived
    // so both stay consistent (and both verifiable against one seal). The
    // re-derivation is exact in both directions because half_exact means
    // every element round-trips — which also makes a second identical call
    // restore the original bits.
    const std::size_t i = static_cast<std::size_t>((bit / 16) % w.half.size());
    w.half[i] = static_cast<std::uint16_t>(w.half[i] ^ (1u << (bit % 16)));
    w.v[i] = common::fp16_bits_to_fp32(w.half[i]);
    return;
  }
  SPK_CHECK(!w.v.empty(), "flip_weight_bit on an empty weight slice");
  const std::size_t i = static_cast<std::size_t>((bit / 32) % w.v.size());
  std::uint32_t u;
  std::memcpy(&u, &w.v[i], sizeof(u));
  u ^= 1u << (bit % 32);
  std::memcpy(&w.v[i], &u, sizeof(u));
}

void flip_spike_byte(snn::SpikeMap& m, std::uint64_t byte) {
  SPK_CHECK(!m.v.empty(), "flip_spike_byte on an empty spike map");
  // Spike payloads are 0/1-valued bytes: XOR with 1 toggles the spike while
  // keeping the value domain valid — the realistic single-event upset in a
  // 1-bit payload, and involutive for retry recovery.
  m.v[static_cast<std::size_t>(byte % m.v.size())] ^= 1u;
}

void flip_membrane_bit(snn::Tensor& t, std::uint64_t bit) {
  SPK_CHECK(!t.v.empty(), "flip_membrane_bit on an empty tensor");
  const std::size_t i = static_cast<std::size_t>((bit / 32) % t.v.size());
  std::uint32_t u;
  std::memcpy(&u, &t.v[i], sizeof(u));
  u ^= 1u << (bit % 32);
  std::memcpy(&t.v[i], &u, sizeof(u));
}

}  // namespace spikestream::runtime

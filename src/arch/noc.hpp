// Inter-cluster interconnect (NoC) model: a link-level topology. Every
// cluster owns an injection and an ejection link into its local switch.
//
//  * kRingQuadrant (default) — the clusters are grouped into quadrants (up
//    to `quadrant_size` clusters each) whose switches sit on a bidirectional
//    ring. With one quadrant (<= quadrant_size clusters) there are no ring
//    links and it prices exactly like kCrossbar.
//  * kCrossbar — the local switches are joined by an ideal core: a transfer
//    crosses only its injection and ejection links.
//
// A transfer charges its payload to every link it traverses exactly once —
// in particular a multicast charges each link once per *link*, not once per
// receiver, so an 8-way ifmap broadcast costs one injection, at most one
// traversal of each ring link, and one ejection per receiver. Contention
// cycles are the busiest link's serialization plus the longest route's hop
// latency.
//
// Traffic accounting (who pays what) lives in the sharded backend: a layer's
// `noc_bytes` is every link traversal of the bytes that cross the fabric —
// broadcast ifmaps, halo rows of spatial stripes, gathered ofmap slices, FC
// partial-sum reductions, and pipeline stage handoffs. The bytes are always
// recorded in KernelStats (and priced by the energy model); the *timing*
// gate is opt-in via `model_contention` (off = a perfect fabric that never
// stretches a layer's wall-clock).
#pragma once

#include <algorithm>
#include <array>

namespace spikestream::arch {

enum class NocTopology {
  kCrossbar,      ///< per-cluster injection/ejection links, ideal core
  kRingQuadrant,  ///< cluster quadrants on a bidirectional switch ring
};

inline const char* noc_topology_name(NocTopology t) {
  switch (t) {
    case NocTopology::kCrossbar: return "crossbar";
    case NocTopology::kRingQuadrant: return "ring-quadrant";
  }
  return "?";
}

struct NocParams {
  /// false = perfect fabric: traffic is still counted and priced, but never
  /// gates a layer's wall-clock.
  bool model_contention = false;
  /// Interconnect shape (see header comment).
  NocTopology topology = NocTopology::kRingQuadrant;
  /// Cycles per traversed switch hop on a layer's longest route (transfers
  /// of one layer are pipelined back to back, so only the head pays it).
  double hop_latency = 12.0;
  /// Bandwidth of one injection/ejection/ring link, bytes per cycle. Matches
  /// one cluster's DMA port width.
  double link_bytes_per_cycle = 64.0;
  /// Clusters per quadrant switch under kRingQuadrant.
  int quadrant_size = 4;
};

/// Allocation-free per-link byte accumulator for one layer's inter-cluster
/// traffic. Build one, describe the layer's transfers (unicast /
/// multicast), then read total bytes (for KernelStats::noc_bytes / energy)
/// and contention cycles (busiest link + longest route). Multicast charges
/// each traversed link exactly once.
class NocModel {
 public:
  static constexpr int kMaxClusters = 64;

  NocModel(const NocParams& p, int clusters)
      : p_(p),
        n_(std::clamp(clusters, 1, kMaxClusters)),
        quad_(std::max(1, p.quadrant_size)),
        ring_(p.topology == NocTopology::kRingQuadrant
                  ? (n_ + std::max(1, p.quadrant_size) - 1) /
                        std::max(1, p.quadrant_size)
                  : 1) {
    // Only the n_ cluster links and ring_ ring links are ever read.
    std::fill_n(up_.begin(), n_, 0.0);
    std::fill_n(down_.begin(), n_, 0.0);
    std::fill_n(derate_.begin(), n_, 1.0);
    std::fill_n(cw_.begin(), ring_, 0.0);
    std::fill_n(ccw_.begin(), ring_, 0.0);
  }

  int clusters() const { return n_; }
  int quadrants() const { return ring_; }

  /// Fault modeling: derate the bandwidth of one cluster's injection and
  /// ejection links by `factor` >= 1 (the link serializes `bytes * factor`
  /// worth of cycles). Ring links are switch fabric and stay at full width.
  /// All-ones derates reproduce the healthy cycles() bit-exactly.
  void set_link_derate(int cluster, double factor) {
    if (cluster < 0 || cluster >= n_) return;
    derate_[idx(cluster)] = std::max(1.0, factor);
  }

  /// Point-to-point transfer src -> dst (no-op when src == dst).
  void unicast(int src, int dst, double bytes) {
    if (bytes <= 0.0 || src == dst) return;
    up_[idx(src)] += bytes;
    down_[idx(dst)] += bytes;
    total_ += 2.0 * bytes;
    int hops = 2;
    if (ring_ > 1) {
      const int qs = quadrant(src), qd = quadrant(dst);
      if (qs != qd) hops += charge_ring_path(qs, qd, bytes);
    }
    max_hops_ = std::max(max_hops_, hops);
  }

  /// One payload from `src` to every cluster of [lo, hi) except `src`.
  /// Injection is charged once, each ring link at most once (minimal-
  /// direction flood), each receiver's ejection once — the link-model
  /// multicast contract the tests pin (crossbar link-byte sum is exactly
  /// the (1 + receivers) * payload lower bound).
  void multicast(int src, int lo, int hi, double bytes) {
    if (bytes <= 0.0) return;
    lo = std::max(lo, 0);
    hi = std::min(hi, n_);
    int receivers = 0;
    int max_cw = 0, max_ccw = 0;
    const int qs = quadrant(src);
    for (int d = lo; d < hi; ++d) {
      if (d == src) continue;
      ++receivers;
      down_[idx(d)] += bytes;
      if (ring_ > 1) {
        const int qd = quadrant(d);
        if (qd != qs) {
          const int dcw = (qd - qs + ring_) % ring_;
          const int dccw = ring_ - dcw;
          if (dcw <= dccw) {
            max_cw = std::max(max_cw, dcw);
          } else {
            max_ccw = std::max(max_ccw, dccw);
          }
        }
      }
    }
    if (receivers == 0) return;
    up_[idx(src)] += bytes;
    total_ += static_cast<double>(receivers + 1) * bytes;
    for (int h = 0; h < max_cw; ++h) {
      cw_[(qs + h) % ring_] += bytes;
      total_ += bytes;
    }
    for (int h = 0; h < max_ccw; ++h) {
      ccw_[(qs - h + ring_ * 2) % ring_] += bytes;
      total_ += bytes;
    }
    max_hops_ = std::max(max_hops_, 2 + std::max(max_cw, max_ccw));
  }

  /// Sum of bytes over all links (what KernelStats::noc_bytes records and
  /// the energy model prices: every link traversal moves the payload once).
  double total_link_bytes() const { return total_; }

  /// Bytes on the busiest single link.
  double max_link_bytes() const {
    double m = 0.0;
    for (int c = 0; c < n_; ++c) m = std::max({m, up_[idx(c)], down_[idx(c)]});
    for (int q = 0; q < ring_; ++q) {
      m = std::max({m, cw_[static_cast<std::size_t>(q)],
                    ccw_[static_cast<std::size_t>(q)]});
    }
    return m;
  }

  /// Switch hops of the longest route any transfer took.
  int max_hops() const { return max_hops_; }

  /// Cycles the fabric needs for this layer's traffic: head latency of the
  /// longest route plus serialization on the busiest link (a derated link
  /// serializes its bytes `factor` times slower). 0 when no bytes moved.
  double cycles() const {
    if (total_ <= 0.0) return 0.0;
    double m = 0.0;
    for (int c = 0; c < n_; ++c) {
      m = std::max(
          {m, up_[idx(c)] * derate_[idx(c)], down_[idx(c)] * derate_[idx(c)]});
    }
    for (int q = 0; q < ring_; ++q) {
      m = std::max({m, cw_[static_cast<std::size_t>(q)],
                    ccw_[static_cast<std::size_t>(q)]});
    }
    return p_.hop_latency * max_hops_ + m / p_.link_bytes_per_cycle;
  }

 private:
  static std::size_t idx(int c) { return static_cast<std::size_t>(c); }
  int quadrant(int c) const { return c / quad_; }

  /// Charge every directed ring link on the minimal path qs -> qd once;
  /// returns the hop count of that path.
  int charge_ring_path(int qs, int qd, double bytes) {
    const int dcw = (qd - qs + ring_) % ring_;
    const int dccw = ring_ - dcw;
    if (dcw <= dccw) {
      for (int h = 0; h < dcw; ++h) {
        cw_[(qs + h) % ring_] += bytes;
        total_ += bytes;
      }
      return dcw;
    }
    for (int h = 0; h < dccw; ++h) {
      ccw_[(qs - h + ring_ * 2) % ring_] += bytes;
      total_ += bytes;
    }
    return dccw;
  }

  NocParams p_;
  int n_;
  int quad_;
  int ring_;  ///< quadrant switches on the ring (1 = no ring links)
  double total_ = 0.0;
  int max_hops_ = 0;
  std::array<double, kMaxClusters> up_;    ///< cluster -> local switch
  std::array<double, kMaxClusters> down_;  ///< local switch -> cluster
  std::array<double, kMaxClusters> cw_;    ///< ring: switch q -> q+1
  std::array<double, kMaxClusters> ccw_;   ///< ring: switch q -> q-1
  std::array<double, kMaxClusters> derate_;  ///< per-cluster link bw derate
};

}  // namespace spikestream::arch

// The typed resource vector a job requests and a cluster provisions.
//
// The paper's core reasons about (nodes, memory-per-node); production HPC
// jobs also contend on GPUs and burst-buffer capacity (Fan & Lan,
// "Scheduling Beyond CPUs for HPC"). ResourceVector names the full axis set
// once so every layer — workload, cluster ledger, topology headroom,
// placement, metrics — speaks the same vocabulary. Axes default to zero:
// a default-constructed vector describes a legacy (nodes, memory)-only
// request, which keeps every existing trace and golden byte-identical.
//
// Arithmetic on Bytes-scale axes is overflow-checked: aggregate quantities
// (mem_per_node x nodes x jobs) can plausibly approach 2^63 in adversarial
// sweeps, and a silently wrapped capacity would corrupt the conservation
// invariants the cluster audit depends on. Checked ops die loudly via
// DMSCHED_ASSERT instead of wrapping.
#pragma once

#include <cstdint>
#include <string>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace dmsched {

/// `a + b` on raw 64-bit counts; aborts on signed overflow.
[[nodiscard]] inline std::int64_t checked_add_i64(std::int64_t a,
                                                  std::int64_t b) {
  std::int64_t out = 0;
  DMSCHED_ASSERT(!__builtin_add_overflow(a, b, &out),
                 "64-bit addition overflowed");
  return out;
}

/// `a * b` on raw 64-bit counts; aborts on signed overflow.
[[nodiscard]] inline std::int64_t checked_mul_i64(std::int64_t a,
                                                  std::int64_t b) {
  std::int64_t out = 0;
  DMSCHED_ASSERT(!__builtin_mul_overflow(a, b, &out),
                 "64-bit multiplication overflowed");
  return out;
}

/// `a + b` as Bytes; aborts on overflow or a negative result.
[[nodiscard]] inline Bytes checked_add(Bytes a, Bytes b) {
  const Bytes out{checked_add_i64(a.count(), b.count())};
  DMSCHED_ASSERT(out.count() >= 0, "byte quantity went negative");
  return out;
}

/// `a * k` as Bytes (k is a node count or similar); aborts on overflow or a
/// negative result.
[[nodiscard]] inline Bytes checked_mul(Bytes a, std::int64_t k) {
  const Bytes out{checked_mul_i64(a.count(), k)};
  DMSCHED_ASSERT(out.count() >= 0, "byte quantity went negative");
  return out;
}

/// The typed request/capacity vector: every axis a job can contend on.
///
/// Per-node axes (mem_per_node, gpus_per_node) scale with the node count;
/// bb_bytes is a job-global staging reservation against the cluster-wide
/// burst buffer. A zero axis means "not requested" / "not provisioned". The
/// vector itself checks nothing: a job's axes are checked where jobs enter
/// (validate(const Job&) in workload/job.hpp), a machine's by
/// ClusterConfig::validate, so the core never sees a negative axis.
struct ResourceVector {
  /// Node-exclusive allocation size.
  std::int32_t nodes = 0;
  /// Memory footprint per allocated node.
  Bytes mem_per_node{};
  /// Accelerators per allocated node.
  std::int32_t gpus_per_node = 0;
  /// Job-global burst-buffer reservation.
  Bytes bb_bytes{};

  /// Aggregate memory footprint across all nodes (overflow-checked).
  [[nodiscard]] Bytes total_mem() const {
    return checked_mul(mem_per_node, nodes);
  }
  /// Aggregate GPU count across all nodes (overflow-checked).
  [[nodiscard]] std::int64_t total_gpus() const {
    return checked_mul_i64(gpus_per_node, nodes);
  }
  /// True when every axis is zero (the empty request).
  [[nodiscard]] bool is_zero() const {
    return nodes == 0 && mem_per_node.is_zero() && gpus_per_node == 0 &&
           bb_bytes.is_zero();
  }
  [[nodiscard]] bool operator==(const ResourceVector&) const = default;
};

/// Which axes a placement policy enforces during planning.
///
/// Nodes and memory are always enforced — they are the paper's core pair and
/// no scheduler in this codebase is blind to them. The optional axes let
/// mem-aware-EASY (memory-only planning) and resource-aware-EASY (all axes)
/// share one template: the memory-only instantiation simply plans blind to
/// GPUs and burst buffer, while every actual start is still validated against
/// the full cluster ledger.
struct ResourceAxes {
  bool gpus = true;
  bool burst_buffer = true;

  /// The paper's original policy surface: plan on nodes + memory only.
  [[nodiscard]] static ResourceAxes memory_only() {
    return ResourceAxes{.gpus = false, .burst_buffer = false};
  }
  /// Plan on every axis.
  [[nodiscard]] static ResourceAxes all() { return ResourceAxes{}; }
  [[nodiscard]] bool all_on() const { return gpus && burst_buffer; }

  [[nodiscard]] bool operator==(const ResourceAxes&) const = default;
};

}  // namespace dmsched

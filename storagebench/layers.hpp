// Layer measurements shared between workloads.
//
// The output contract asks every traced run for every per-layer metric.
// A workload measures the layers it exercises at full size, inside its own
// phase; the layers it does not exercise are measured by the other
// workloads' layer functions at the probe sizes below.  Only the
// workload's own call reports tracing_overhead_frac.
#pragma once

#include <cstdint>

#include "storagebench/common.hpp"

namespace sb {

inline constexpr std::uint64_t kIoBlocks = 16384;         ///< 4 KiB each
inline constexpr std::uint64_t kIoProbeBlocks = 2048;
inline constexpr std::uint64_t kReconfigBlocks = 20000;   ///< per volume
inline constexpr std::uint64_t kReconfigProbeBlocks = 2000;
inline constexpr double kProbeSeconds = 2.0;

/// I/O path: codec, placement and store calls on their own, one traced
/// client (residuals, allocation counts), two clients untraced and traced
/// (contention, registry deltas, tracing overhead).
void io_layers(std::uint64_t seed, std::uint64_t blocks, double seconds,
               bool own_workload, Tracer& tracer, Report& report);

/// Placement read path: pinned-epoch strategy calls, epoch loads, the
/// shared counter, reader scaling, strategy construction and commit
/// latency under read load.
void lookup_layers(std::uint64_t seed, double seconds, bool own_workload,
                   Tracer& tracer, Report& report);

/// Reconfiguration: one scripted pool run with per-step spans, journal and
/// snapshot costs, recovery timed as snapshot load, then replay, and the
/// RS(4+2) reconstruct call.
void reconfig_layers(std::uint64_t seed, std::uint64_t blocks_per_volume,
                     bool own_workload, Tracer& tracer, Report& report);

}  // namespace sb

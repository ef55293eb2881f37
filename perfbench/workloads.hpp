/**
 * workloads.hpp — the benchmark's four seeded pipelines.
 *
 * Each workload builds its inputs from the seed once, in its factory,
 * before anything is timed. run() then assembles a fresh graph through the
 * public raft::map API, executes it, and checks the output against the
 * workload's oracle. A traced rep additionally fills rep_result::trace
 * from the benchmark-owned kernels' sampled probes, from standalone calls
 * into the analysis and mapping layers on the same assembled graph, and
 * from run_options::stats_out.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"

namespace perfbench {

/** Per-layer figures from one traced rep. */
struct trace_rep
{
    double link_s{ 0 };
    double exe_prerun_s{ 0 };
    double analyze_s{ 0 };
    double detect_s{ 0 };
    double partition_s{ 0 };
    kernel_summary stage, sink;
    double monitor_tick_hz{ 0 };
    double fifo_resizes{ 0 };
    double fifo_capacity_bytes_final{ 0 };
    double fifo_util_p95_stage_in{ 0 };
    double fifo_util_p95_stage_out{ 0 };
    double lane_skew_cv{ 0 };
    std::vector<double> hop_wait_us; /**< stage push → sink pop        */
    std::vector<double> latency_us;  /**< element creation → sink pop  */
};

/** One rep: one graph assembled, executed and checked. */
struct rep_result
{
    bool correct{ false };
    std::string error;         /**< oracle mismatch, empty when correct */
    double setup_s{ 0 };       /**< first link() → first sink element  */
    double exe_s{ 0 };         /**< map::exe() wall time               */
    double cpu_cores{ 0 };     /**< process CPU s / exe() wall s       */
    double items{ 0 };         /**< work items the graph processed     */
    double mib{ 0 };           /**< input MiB the graph processed      */
    double on_time_frac{ 1 };  /**< items delivered by their deadline  */
    double gen_lag_p99_us{ 0 }; /**< paced source lateness, paced only */
    trace_rep trace;
};

class workload
{
public:
    virtual ~workload() = default;

    /** Assemble, execute and check one graph; `traced` swaps in the
     *  benchmark's probed kernels and fills rep_result::trace. */
    virtual rep_result run( bool traced ) = 0;

    /** Name of the end-to-end metric trace.overhead_frac compares. */
    virtual const char *primary() const = 0;
};

/** The workload `name` with its inputs built from `seed`; null when the
 *  name is unknown. */
std::unique_ptr<workload> make_workload( const std::string &name,
                                         std::uint64_t seed );

/** Pattern the search workload and the algo probe look for. */
inline const std::string search_pattern = "volatile memory";

} /** end namespace perfbench **/

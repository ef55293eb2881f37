/**
 * scaling.hpp — calibrated scaling models for the Figure 10 study.
 *
 * The paper measures four string-search systems on a 16-core Xeon (Table 1):
 * GNU-Parallel-parallelized grep, Apache Spark running Boyer–Moore,
 * RaftLib + Aho–Corasick and RaftLib + Boyer–Moore–Horspool. The host
 * running this code has fewer cores than that (4 vCPUs for the figures in
 * EXPERIMENTS.md), so each framework's *execution structure* is simulated
 * as the queueing network it actually is (sim/pipeline.hpp), with every
 * rate constant calibrated by running the real code on the live machine:
 *
 *  - matcher service rates: the actual algo:: matchers timed over the
 *    actual corpus, taking turns pass by pass (each keeps its best);
 *  - memory wall: the aggregate streaming rate of k concurrent scans,
 *    measured over one shared wall-clock window for k = 1 … min(hardware
 *    threads, 16). All three models stream the corpus, so n workers share
 *    mem_bw_k[min(n, K) − 1]; past the K the host offers the last value
 *    holds. This is the ceiling that flattens BMH past ~10 cores — "the
 *    memory system itself becomes the bottleneck", §5 — and it is an
 *    aggregate quantity, not one thread's scan rate. The simulated machine
 *    is the paper's, though, and a host with more bandwidth per core than
 *    it had measures a wall that BMH would not reach by 16 cores; so the
 *    wall is also held at or below the paper host's, paper_wall_bmh_cores
 *    × the one-core BMH rate (DESIGN.md §3). Matcher rates are timed in
 *    thread CPU time, so a process or test that preempts the probe does
 *    not lower them;
 *  - process/thread spawn cost: measured fork/join (GNU Parallel spawns a
 *    fresh grep per block);
 *  - pipe bandwidth: measured (GNU Parallel's single-threaded parent
 *    distributes stdin through pipes — its structural bottleneck);
 *  - the JVM matcher factor and Spark task overhead are documented
 *    constants (no JVM offline), chosen so the single-core Spark/grep ratio
 *    matches the paper's reported absolute rates.
 *
 * Framework structure (who has what bottleneck) is what produces the
 * paper's shape; the constants only set the scale.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/pipeline.hpp"

namespace raft::sim {

struct calibration
{
    /** measured single-core matcher rates, bytes/s **/
    double memchr_bps{ 0.0 }; /**< grep's hot loop stand-in */
    double ac_bps{ 0.0 };
    double bmh_bps{ 0.0 };
    double bm_bps{ 0.0 };

    /** aggregate streaming rate of k concurrent scans at index k − 1,
     *  bytes/s, a running maximum over k (an extra thread can always sit
     *  idle, so the aggregate never falls) */
    std::vector<double> mem_bw_k;
    double mem_bw_bps{ 0.0 };      /**< the ceiling: mem_bw_k.back()   */
    double thread_spawn_s{ 0.0 };  /**< measured create+join           */
    double process_spawn_s{ 0.0 }; /**< measured fork+waitpid          */
    double pipe_bw_bps{ 0.0 };     /**< measured pipe transfer         */

    /** documented substitution constants (see DESIGN.md §3) **/
    double jvm_matcher_factor{ 0.25 };
    /** GNU Parallel's --pipe parent is an interpreted record splitter;
     *  its sustained distribution rate is far below raw pipe bandwidth
     *  (GNU Parallel documentation reports order-100 MB/s; 0.5 GB/s is
     *  a generous bound). */
    double parallel_split_bps{ 0.5e9 };
    /** The paper's host hit its memory wall at about ten one-core BMH
     *  scans: Fig. 10's BMH is linear to ~10 cores, then flat near 8 GB/s
     *  against ~0.8 on one core. */
    double paper_wall_bmh_cores{ 10.0 };
    double spark_task_overhead_s{ 0.005 };
    double spark_partition_bytes{ 32.0 * 1024 * 1024 };
    double parallel_block_bytes{ 1.0 * 1024 * 1024 };
    double raft_segment_bytes{ 64.0 * 1024 };
};

/** Measure every live constant against `corpus` / `pattern`. */
calibration calibrate( const std::string &corpus,
                       const std::string &pattern );

/** The memory wall n streaming workers share: mem_bw_k[min(n, K) − 1]
 *  for K = mem_bw_k.size(), and no more than the paper host's wall,
 *  paper_wall_bmh_cores × bmh_bps. */
double memory_wall_bps( const calibration &c, unsigned n );

struct scaling_point
{
    unsigned cores{ 1 };
    double gbps{ 0.0 };
};

/** GNU-Parallel grep: single-threaded pipe distributor feeding n
 *  spawn-per-block grep workers. */
std::vector<scaling_point> model_pgrep( const calibration &c,
                                        double file_bytes,
                                        unsigned max_cores );

/** Apache Spark: driver task dispatch feeding n executors running
 *  (JVM-factored) Boyer–Moore over fixed partitions. */
std::vector<scaling_point> model_spark( const calibration &c,
                                        double file_bytes,
                                        unsigned max_cores );

/** RaftLib: filereader (descriptor source) feeding n replicated match
 *  kernels (capped at memory_wall_bps( c, n )) feeding a reduce.
 *  `algo_bps` selects the matcher (c.ac_bps or c.bmh_bps). */
std::vector<scaling_point> model_raft( const calibration &c,
                                       double algo_bps,
                                       double file_bytes,
                                       unsigned max_cores );

/** Plain single-threaded grep reference (the paper's ~1.2 GB/s remark). */
double plain_grep_gbps( const calibration &c );

} /** end namespace raft::sim **/

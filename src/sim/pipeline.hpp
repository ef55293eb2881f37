/**
 * pipeline.hpp — queueing-network simulation of a streaming pipeline.
 *
 * Simulates a linear pipeline of stages — each a multi-server station with
 * a finite upstream queue — with manufacturing blocking: a server that
 * finishes an item while the downstream queue is full holds the item (and
 * the server) until space opens, exactly the stall behaviour of a RaftLib
 * kernel blocking on a full output stream. This is the model §3 invokes
 * ("Streaming systems can be modeled as queueing networks. Each stream
 * within the system is a queue.") made executable.
 *
 * Service times may be deterministic or exponential; a global resource pool
 * (memory bandwidth) can cap the aggregate service rate of flagged stages —
 * this is what flattens the BMH curve past ~10 cores in Figure 10 ("the
 * memory system itself becomes the bottleneck").
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sim/des.hpp"

namespace raft::sim {

enum class service_dist
{
    deterministic,    /**< CV = 0                                    */
    uniform,          /**< U(0, 2/rate): CV = 1/sqrt(3)              */
    exponential,      /**< CV = 1                                    */
    hyperexponential  /**< balanced-means H2 with CV^2 = 4           */
};

struct stage_desc
{
    std::string name;
    double service_rate{ 1.0 }; /**< items/s per server                  */
    std::size_t servers{ 1 };
    std::size_t queue_capacity{ 64 }; /**< upstream queue (stage 0: ∞)   */
    service_dist dist{ service_dist::exponential };
    /** When true, this stage's aggregate rate is capped by the shared
     *  bandwidth pool (see pipeline_desc::shared_bandwidth_rate). */
    bool uses_shared_bandwidth{ false };
};

struct pipeline_desc
{
    std::vector<stage_desc> stages;
    std::uint64_t items{ 10'000 };
    /** Aggregate items/s available to bandwidth-capped stages
     *  (0 = uncapped). */
    double shared_bandwidth_rate{ 0.0 };
    std::uint64_t seed{ 0xD35C0DE };
};

struct stage_metrics
{
    std::string name;
    std::uint64_t completed{ 0 };
    double utilization{ 0.0 };     /**< busy server-time / (T · servers) */
    double mean_queue_len{ 0.0 };  /**< time-averaged                    */
    double blocked_fraction{ 0.0 };/**< server-time spent output-blocked */
};

struct pipeline_result
{
    double makespan_s{ 0.0 };
    double throughput_items_per_s{ 0.0 };
    std::vector<stage_metrics> stages;
};

/** Run the pipeline until `items` have left the final stage. */
pipeline_result simulate_pipeline( const pipeline_desc &desc );

} /** end namespace raft::sim **/

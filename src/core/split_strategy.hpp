/**
 * split_strategy.hpp — data-distribution policies for split adapters.
 *
 * "Split data distribution can be done in many ways, and the run-time
 * attempts to select the best amongst round-robin and least-utilized
 * strategies (queue utilization used to direct data flow to less utilized
 * servers). As with all of the specific mechanisms ... each of these
 * approaches is designed to be easily swapped out for alternatives,
 * enabling empirical comparative study between approaches." (§4.1)
 *
 * A strategy ranks the candidate output streams for the next element; the
 * split adapter tries them in that order (skipping full ones).
 */
#pragma once

#include <cstddef>
#include <memory>
#include <numeric>
#include <vector>

#include "core/fifo.hpp"
#include "core/options.hpp"

namespace raft {

class split_strategy
{
public:
    virtual ~split_strategy() = default;

    /**
     * Index of the preferred output for the next element. For non-strict
     * strategies the adapter falls back to (chosen + k) % n when the
     * preferred stream is full.
     */
    virtual std::size_t choose(
        const std::vector<fifo_base *> &outputs ) = 0;

    /**
     * Strict strategies fix the destination of each element (true
     * round-robin dealing): the adapter waits for the chosen stream
     * rather than rerouting. Adaptive strategies let the adapter fall
     * back to any stream with space.
     */
    virtual bool strict() const { return false; }

    virtual const char *name() const = 0;
};

/** Cycle through outputs regardless of their state. */
class round_robin_strategy final : public split_strategy
{
public:
    std::size_t choose( const std::vector<fifo_base *> &outputs ) override
    {
        const auto n = outputs.size();
        const auto c = next_++;
        return n == 0 ? 0 : c % n;
    }

    /** classic dealing: element i goes to replica i mod n, full stop **/
    bool strict() const override { return true; }

    const char *name() const override { return "round-robin"; }

private:
    std::size_t next_{ 0 };
};

/**
 * Direct flow to the replica whose queue holds the least backlog right now.
 *
 * Replicas are ranked by occupancy in elements, size(), not by
 * size() / capacity(): the monitor grows the queue of a replica whose
 * writer blocks, and a fraction would then make the grown queue look
 * emptiest and keep winning. The scan starts after the last choice, so
 * ties (every queue empty at start-up) rotate across the replicas instead
 * of all going to replica 0.
 *
 * The scan costs one load per output. The split adapter calls choose()
 * once per burst of up to 64 elements (parallel.cpp), not per element,
 * so by default every burst is ranked afresh. A choice reused across
 * bursts keeps feeding one replica while another has room, since the
 * split moves to a neighbour only when the chosen ring is full, and a
 * large ring (or one the monitor grew) may never fill. `stride` > 1
 * reuses a choice for that many calls.
 */
class least_utilized_strategy final : public split_strategy
{
public:
    explicit least_utilized_strategy( const std::size_t stride = 1 )
        : stride_( stride == 0 ? 1 : stride )
    {
    }

    std::size_t choose( const std::vector<fifo_base *> &outputs ) override
    {
        const auto n = outputs.size();
        if( n == 0 )
        {
            return 0;
        }
        if( reuse_ > 0 && cached_ < n )
        {
            --reuse_;
            return cached_;
        }
        const auto first = ( cached_ + 1 ) % n;
        std::size_t best = first;
        auto best_size   = outputs[ first ]->size();
        for( std::size_t k = 1; k < n; ++k )
        {
            const auto i  = ( first + k ) % n;
            const auto sz = outputs[ i ]->size();
            if( sz < best_size )
            {
                best_size = sz;
                best      = i;
            }
        }
        cached_ = best;
        reuse_  = stride_ - 1;
        return best;
    }

    const char *name() const override { return "least-utilized"; }

private:
    std::size_t stride_;
    std::size_t cached_{ 0 };
    std::size_t reuse_{ 0 };
};

inline std::unique_ptr<split_strategy>
make_split_strategy( const split_kind kind )
{
    switch( kind )
    {
        case split_kind::round_robin:
            return std::make_unique<round_robin_strategy>();
        case split_kind::least_utilized:
        default:
            return std::make_unique<least_utilized_strategy>();
    }
}

} /** end namespace raft **/

/**
 * synonym.hpp — synonymous kernel groupings (§4.2).
 *
 * "RaftLib gives the user the ability to specify synonymous kernel
 * groupings that the run-time can swap out to optimize the computation.
 * These can be kernels that are implemented for multiple hardware types,
 * or can be differing algorithms. For instance, a version of the UNIX
 * utility grep could be implemented with multiple search algorithms...
 * they can all be expressed as a 'search' kernel."
 *
 * §5 notes the benchmark disabled this ("RaftLib has the ability to
 * quickly swap out algorithms during execution") and then demonstrates
 * manually that swapping Aho–Corasick for Boyer–Moore–Horspool "improved
 * performance drastically". synonym_kernel automates exactly that swap.
 *
 * Mechanics: the group declares the (identical) port signature of its
 * alternatives and binds every alternative's ports to the same streams;
 * only the active alternative executes. An explore-then-commit policy
 * probes each alternative for a window of invocations, commits to the
 * one with the lowest median invocation time, and periodically re-probes
 * so phase changes in the input (§3's dynamic rates) can flip the
 * choice. The median, not the mean: invocations are timed on the wall
 * clock, and one preempted invocation can outweigh the whole gap between
 * two alternatives in a mean, but not in a median.
 */
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/defs.hpp"
#include "core/exceptions.hpp"
#include "core/kernel.hpp"

namespace raft {

struct swap_policy
{
    /** run() invocations measured per alternative while probing */
    std::size_t probe_window{ 32 };
    /** committed invocations between re-probe rounds (0 = never) */
    std::size_t recheck_interval{ 8192 };
};

class synonym_kernel : public kernel
{
public:
    synonym_kernel( std::vector<std::unique_ptr<kernel>> alternatives,
                    const swap_policy policy = {} )
        : kernel(), alts_( std::move( alternatives ) ), policy_( policy )
    {
        if( alts_.empty() )
        {
            throw port_exception(
                "synonym_kernel needs >= 1 alternative" );
        }
        /** mirror the first alternative's port signature and demand the
         *  rest match it exactly **/
        for( auto &p : alts_[ 0 ]->input )
        {
            input.add_with_meta( p.name(), p.meta() );
        }
        for( auto &p : alts_[ 0 ]->output )
        {
            output.add_with_meta( p.name(), p.meta() );
        }
        for( std::size_t i = 1; i < alts_.size(); ++i )
        {
            verify_signature( *alts_[ i ] );
        }
        median_ns_.assign( alts_.size(), 0.0 );
        window_ns_.resize( alts_.size() );
        set_name( "raft::synonym[" + alts_[ 0 ]->name() + ",...x" +
                  std::to_string( alts_.size() ) + "]" );
    }

    kstatus run() override
    {
        if( !bound_ )
        {
            bind_alternatives();
        }
        const auto t0 = detail::now_ns();
        const auto st = alts_[ active_ ]->run();
        const auto dt = static_cast<double>( detail::now_ns() - t0 );
        observe( dt );
        return st;
    }

    /** @name introspection / research hooks */
    ///@{
    std::size_t active() const noexcept { return active_; }
    std::string active_name() const { return alts_[ active_ ]->name(); }
    std::size_t alternative_count() const noexcept
    {
        return alts_.size();
    }
    /** Median ns per invocation of alternative i over its last complete
     *  probe window; 0 before that window completes. */
    double median_invocation_ns( const std::size_t i ) const
    {
        return median_ns_[ i ];
    }
    std::size_t swap_count() const noexcept { return swaps_; }
    ///@}

    bool clone_supported() const override
    {
        for( const auto &a : alts_ )
        {
            if( !a->clone_supported() )
            {
                return false;
            }
        }
        return true;
    }

    kernel *clone() const override
    {
        if( !clone_supported() )
        {
            return nullptr;
        }
        std::vector<std::unique_ptr<kernel>> copies;
        for( const auto &a : alts_ )
        {
            copies.emplace_back( a->clone() );
        }
        return new synonym_kernel( std::move( copies ), policy_ );
    }

private:
    void verify_signature( kernel &other ) const
    {
        const auto check = []( const port_container &mine,
                               port_container &theirs,
                               const char *side ) {
            if( mine.count() != theirs.count() )
            {
                throw port_exception(
                    std::string( "synonym alternatives disagree on " ) +
                    side + " port count" );
            }
            for( const auto &p : mine )
            {
                if( !theirs.has( p.name() ) ||
                    theirs[ p.name() ].type() != p.type() )
                {
                    throw port_exception(
                        "synonym alternatives disagree on port '" +
                        p.name() + "'" );
                }
            }
        };
        check( input, other.input, "input" );
        check( output, other.output, "output" );
    }

    /** Alias every alternative's ports onto this kernel's streams. */
    void bind_alternatives()
    {
        for( auto &alt : alts_ )
        {
            for( auto &p : input )
            {
                alt->input[ p.name() ].bind( &p.raw() );
            }
            for( auto &p : output )
            {
                alt->output[ p.name() ].bind( &p.raw() );
            }
            alt->set_bus( bus() );
        }
        bound_ = true;
    }

    /** Explore-then-commit with periodic re-probing (see file header). */
    void observe( const double invocation_ns )
    {
        if( probing_ )
        {
            auto &window = window_ns_[ active_ ];
            window.push_back( invocation_ns );
            if( window.size() >= policy_.probe_window )
            {
                /** the middle sample, the lower one of an even window **/
                const auto mid = window.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     ( window.size() - 1 ) / 2 );
                std::nth_element( window.begin(), mid, window.end() );
                median_ns_[ active_ ] = *mid;
                /** advance to the next unprobed alternative **/
                std::size_t next = alts_.size();
                for( std::size_t i = 0; i < alts_.size(); ++i )
                {
                    if( window_ns_[ i ].size() < policy_.probe_window )
                    {
                        next = i;
                        break;
                    }
                }
                if( next < alts_.size() )
                {
                    switch_to( next );
                }
                else
                {
                    commit();
                }
            }
            return;
        }
        if( policy_.recheck_interval != 0 &&
            ++committed_runs_ >= policy_.recheck_interval )
        {
            /** start a fresh probe round **/
            committed_runs_ = 0;
            probing_        = true;
            for( auto &w : window_ns_ )
            {
                w.clear();
            }
            std::fill( median_ns_.begin(), median_ns_.end(), 0.0 );
            switch_to( 0 );
        }
    }

    void commit()
    {
        std::size_t best = 0;
        double best_ns   = std::numeric_limits<double>::infinity();
        for( std::size_t i = 0; i < alts_.size(); ++i )
        {
            if( median_ns_[ i ] < best_ns )
            {
                best_ns = median_ns_[ i ];
                best    = i;
            }
        }
        probing_        = false;
        committed_runs_ = 0;
        switch_to( best );
    }

    void switch_to( const std::size_t i )
    {
        if( i != active_ )
        {
            ++swaps_;
        }
        active_ = i;
    }

    std::vector<std::unique_ptr<kernel>> alts_;
    swap_policy policy_;
    std::size_t active_{ 0 };
    bool probing_{ true };
    bool bound_{ false };
    std::vector<double> median_ns_;
    /** the current probe round's invocation times, per alternative **/
    std::vector<std::vector<double>> window_ns_;
    std::size_t committed_runs_{ 0 };
    std::size_t swaps_{ 0 };
};

} /** end namespace raft **/

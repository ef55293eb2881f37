/**
 * reorder.hpp — re-establish stream order after out-of-order processing.
 *
 * §4.1: "Some applications require data to be processed in order, others
 * are okay with data that is processed out of order, yet others can process
 * the data out of order and re-order at some later time. RaftLib
 * accommodates all of the above paradigms."
 *
 * The third paradigm: tag elements with a sequence number before the
 * parallel region (seq_tag), let replicas process them in any order, then
 * restore order afterwards (reorder) — emitting elements strictly by
 * sequence number.
 */
#pragma once

#include <cstdint>
#include <map>

#include "core/kernel.hpp"

namespace raft {

/** An element paired with its position in the original stream. */
template <class T> struct seq_item
{
    std::uint64_t seq{ 0 };
    T value{};
};

/** Wrap a T stream into a seq_item<T> stream (monotonic sequence). */
template <class T> class seq_tag : public kernel
{
public:
    seq_tag()
        : kernel(), in_( input.addPort<T>( "0" ) ),
          out_( output.addPort<seq_item<T>>( "0" ) )
    {
    }

    kstatus run() override
    {
        auto in  = in_.pop_s<T>();
        auto out = out_.allocate_s<seq_item<T>>();
        out->seq   = next_++;
        out->value = *in;
        return raft::proceed;
    }

private:
    port &in_;
    port &out_;
    std::uint64_t next_{ 0 };
};

/**
 * Buffer out-of-order seq_item<T> arrivals and emit values in sequence
 * order. Elements arrive from any number of replicas (after a reduce
 * adapter); holes are awaited in a bounded map.
 */
template <class T> class reorder : public kernel
{
public:
    reorder()
        : kernel(), in_( input.addPort<seq_item<T>>( "0" ) ),
          out_( output.addPort<T>( "0" ) )
    {
    }

    kstatus run() override
    {
        try
        {
            auto in = in_.pop_s<seq_item<T>>();
            pending_.emplace( in->seq, in->value );
        }
        catch( const closed_port_exception & )
        {
            /** upstream done: flush whatever is buffered, in order **/
            for( auto &kv : pending_ )
            {
                out_.push<T>( std::move( kv.second ) );
            }
            pending_.clear();
            throw;
        }
        while( !pending_.empty() &&
               pending_.begin()->first == expected_ )
        {
            out_.push<T>( std::move( pending_.begin()->second ) );
            pending_.erase( pending_.begin() );
            ++expected_;
        }
        return raft::proceed;
    }

    std::size_t pending_count() const noexcept { return pending_.size(); }

private:
    port &in_;
    port &out_;
    std::uint64_t expected_{ 0 };
    std::map<std::uint64_t, T> pending_;
};

} /** end namespace raft **/

/**
 * reduce.hpp — terminal fold kernel (Figure 6: `reduce< int, func >( val )`;
 * "a reduction to a single output value is possible", §4.2). Folds every
 * element of the input stream into a caller-owned accumulator with a
 * user-supplied binary function; the result is complete when exe() returns.
 *
 * Also provided: range_reduce, the same fold over zero-copy range<T>
 * descriptors produced by for_each.
 */
#pragma once

#include <functional>

#include "core/kernel.hpp"
#include "core/kernels/segment.hpp"

namespace raft {

template <class T, class F = std::plus<T>> class reduce : public kernel
{
public:
    explicit reduce( T &result, F fn = F{} )
        : kernel(), in_( input.addPort<T>( "0" ) ), result_( &result ),
          fn_( std::move( fn ) )
    {
    }

    kstatus run() override
    {
        auto v    = in_.pop_s<T>();
        *result_  = fn_( *result_, *v );
        return raft::proceed;
    }

private:
    port &in_;
    T *result_;
    F fn_;
};

/** Fold over zero-copy segments: applies fn to every element of every
 *  incoming range<T> without the elements ever entering a queue. */
template <class T, class F = std::plus<T>>
class range_reduce : public kernel
{
public:
    explicit range_reduce( T &result, F fn = F{} )
        : kernel(), in_( input.addPort<range<T>>( "0" ) ),
          result_( &result ), fn_( std::move( fn ) )
    {
    }

    kstatus run() override
    {
        auto seg = in_.pop_s<range<T>>();
        for( std::size_t i = 0; i < seg->len; ++i )
        {
            *result_ = fn_( *result_, seg->data[ i ] );
        }
        return raft::proceed;
    }

private:
    port &in_;
    T *result_;
    F fn_;
};

} /** end namespace raft **/

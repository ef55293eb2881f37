/**
 * sum.hpp — the paper's running example, verbatim API (Figure 2): pop one
 * element from each of two typed input streams, add, push on the "sum"
 * output stream. Demonstrates the pop_s / allocate_s RAII accessors. The
 * constructor keeps the `port &` each addPort returns, so run() does no
 * name lookup per element.
 */
#pragma once

#include "core/kernel.hpp"

namespace raft {

template <typename A, typename B, typename C> class sum : public kernel
{
public:
    sum()
        : kernel(), in_a_( input.addPort<A>( "input_a" ) ),
          in_b_( input.addPort<B>( "input_b" ) ),
          out_( output.addPort<C>( "sum" ) )
    {
    }

    virtual kstatus run()
    {
        auto a( in_a_.pop_s<A>() );
        auto b( in_b_.pop_s<B>() );
        auto c( out_.allocate_s<C>() );
        ( *c ) = static_cast<C>( ( *a ) + ( *b ) );
        return ( raft::proceed );
    }

private:
    port &in_a_;
    port &in_b_;
    port &out_;
};

} /** end namespace raft **/

/**
 * write_each.hpp — drain a stream into any C++ output iterator (Figure 5 /
 * Figure 9: `write_each< match_t >( std::back_inserter( total_hits ) )`).
 */
#pragma once

#include <functional>
#include <memory>

#include "core/kernel.hpp"

namespace raft {

template <class T> class write_each : public kernel
{
public:
    template <class OutIt>
    explicit write_each( OutIt out )
        : kernel(), in_( input.addPort<T>( "0" ) )
    {
        auto cursor = std::make_shared<OutIt>( out );
        sink_       = [ cursor ]( T &&v ) {
            **cursor = std::move( v );
            ++( *cursor );
        };
    }

    /** Elements drained per run(): one read-window handshake consumes a
     *  whole batch instead of paying per-element synchronization. */
    static constexpr std::size_t batch = 64;

    kstatus run() override
    {
        auto w = in_.pop_s<T>( batch );
        for( std::size_t i = 0; i < w.size(); ++i )
        {
            sink_( std::move( w[ i ] ) );
        }
        return raft::proceed;
    }

private:
    port &in_;
    std::function<void( T && )> sink_;
};

} /** end namespace raft **/

/**
 * read_each.hpp — stream the contents of any C++ iterator range into the
 * graph (Figure 5: "syntax for reading and writing to C++ standard library
 * containers from raft::kernel objects"). The iterator pair is type-erased
 * so one kernel type serves every container.
 */
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <type_traits>

#include "core/kernel.hpp"

namespace raft {

template <class T> class read_each : public kernel
{
public:
    /** Elements claimed per run(): one write-window handshake feeds a whole
     *  batch downstream instead of paying per-element synchronization. */
    static constexpr std::size_t batch = 64;

    template <class It>
    read_each( It begin, It end )
        : kernel(), out_( output.addPort<T>( "0" ) )
    {
        auto cursor = std::make_shared<It>( begin );
        auto last   = std::make_shared<It>( end );
        next_       = [ cursor, last ]() -> std::optional<T> {
            if( *cursor == *last )
            {
                return std::nullopt;
            }
            T v = **cursor;
            ++( *cursor );
            return v;
        };
    }

    kstatus run() override
    {
        if constexpr( std::is_default_constructible_v<T> &&
                      std::is_move_assignable_v<T> )
        {
            auto w        = out_.allocate_range<T>( batch );
            std::size_t i = 0;
            bool more     = true;
            while( i < w.size() )
            {
                auto v = next_();
                if( !v.has_value() )
                {
                    more = false;
                    break;
                }
                w[ i++ ] = std::move( *v );
            }
            w.publish( i );
            if( more )
            {
                return raft::proceed;
            }
            if( i > 0 )
            {
                w.set_signal( raft::eos );
            }
            return raft::stop;
        }
        else
        {
            /** window slots need default construction + move assignment;
             *  fall back to element-at-a-time for exotic types **/
            auto v = next_();
            if( !v.has_value() )
            {
                return raft::stop;
            }
            out_.push<T>( std::move( *v ) );
            return raft::proceed;
        }
    }

private:
    port &out_;
    std::function<std::optional<T>()> next_;
};

} /** end namespace raft **/

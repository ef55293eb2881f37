#include "core/kernel.hpp"

namespace raft {

namespace {
std::atomic<std::size_t> next_kernel_id{ 0 };
} /** end anonymous namespace **/

kernel::kernel()
    : id_( next_kernel_id.fetch_add( 1, std::memory_order_relaxed ) )
{
}

std::string kernel::name() const
{
    if( !name_hint_.empty() )
    {
        return name_hint_;
    }
    return detail::demangle( typeid( *this ) ) + "#" +
           std::to_string( id_ );
}

bool kernel::ready() const
{
    for( const auto &p : input )
    {
        /** drained ports count as ready: run() terminates immediately **/
        if( p.size() == 0 && !p.drained() )
        {
            return false;
        }
    }
    return outputs_writable();
}

bool kernel::outputs_writable() const
{
    for( const auto &p : output )
    {
        if( !p.writable() )
        {
            return false;
        }
    }
    return true;
}

bool kernel::any_input_ready() const
{
    bool all_drained = true;
    for( const auto &p : input )
    {
        if( p.size() > 0 )
        {
            return true;
        }
        all_drained = all_drained && p.drained();
    }
    return all_drained;
}

} /** end namespace raft **/

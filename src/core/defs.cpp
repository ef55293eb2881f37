#include "core/defs.hpp"

#include <cstdlib>
#include <memory>

#if defined( __GNUG__ )
#include <cxxabi.h>
#endif

#if defined( __linux__ ) && __has_include( <linux/membarrier.h> )
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#define RAFT_HAVE_MEMBARRIER 1
#endif

namespace raft::detail {

std::string demangle( const std::type_info &ti )
{
#if defined( __GNUG__ )
    int status = 0;
    std::unique_ptr<char, void ( * )( void * )> demangled(
        abi::__cxa_demangle( ti.name(), nullptr, nullptr, &status ),
        std::free );
    if( status == 0 && demangled )
    {
        return std::string( demangled.get() );
    }
#endif
    return std::string( ti.name() );
}

#if defined( __GNUC__ ) && !defined( __clang__ ) && __GNUC__ >= 11
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
void seq_cst_fence() noexcept { __atomic_thread_fence( __ATOMIC_SEQ_CST ); }
#if defined( __GNUC__ ) && !defined( __clang__ ) && __GNUC__ >= 11
#pragma GCC diagnostic pop
#endif

#if defined( RAFT_HAVE_MEMBARRIER )

namespace {

long sys_membarrier( const int cmd ) noexcept
{
    return ::syscall( __NR_membarrier, cmd, 0U, 0 );
}

bool register_membarrier() noexcept
{
    const long cmds = sys_membarrier( MEMBARRIER_CMD_QUERY );
    return cmds >= 0 && ( cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED ) != 0 &&
           sys_membarrier( MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED ) == 0;
}

} /** end anonymous namespace **/

bool heavy_barrier_available() noexcept
{
    static const bool registered = register_membarrier();
    return registered;
}

bool heavy_barrier() noexcept
{
    return sys_membarrier( MEMBARRIER_CMD_PRIVATE_EXPEDITED ) == 0;
}

#else

bool heavy_barrier_available() noexcept { return false; }

bool heavy_barrier() noexcept { return false; }

#endif

} /** end namespace raft::detail **/

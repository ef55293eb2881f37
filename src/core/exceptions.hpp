/**
 * exceptions.hpp — exception hierarchy for the RaftLib reproduction.
 *
 * All library errors derive from raft::raft_exception. The scheduler uses
 * closed_port_exception as the normal end-of-stream control path for a
 * kernel blocking on a drained upstream (see scheduler.hpp).
 */
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace raft {

/** Base class of every exception thrown by the library. */
class raft_exception : public std::runtime_error
{
public:
    explicit raft_exception( const std::string &what )
        : std::runtime_error( what )
    {
    }
};

/** Read attempted on a stream whose writer closed and whose queue drained. */
class closed_port_exception : public raft_exception
{
public:
    explicit closed_port_exception( const std::string &what )
        : raft_exception( what )
    {
    }
};

/** Port accessed with a C++ type different from its declared type. */
class type_mismatch_exception : public raft_exception
{
public:
    explicit type_mismatch_exception( const std::string &what )
        : raft_exception( what )
    {
    }
};

/** Two linked ports carry incompatible (non-convertible) types. */
class link_type_exception : public raft_exception
{
public:
    explicit link_type_exception( const std::string &what )
        : raft_exception( what )
    {
    }
};

/** Port name not found, added twice, or linked twice. */
class port_exception : public raft_exception
{
public:
    explicit port_exception( const std::string &what )
        : raft_exception( what )
    {
    }
};

/** Topology invalid: unlinked ports, empty map, disconnected graph. */
class graph_exception : public raft_exception
{
public:
    explicit graph_exception( const std::string &what )
        : raft_exception( what )
    {
    }
};

/**
 * A reader demanded more items than the stream can ever hold and dynamic
 * resizing is disabled, so the program cannot continue (§4: "If a kernel
 * asks to receive five items and the buffer size is only allocated for two,
 * the program cannot continue" — with the monitor enabled the queue is
 * resized instead of throwing).
 */
class demand_exceeds_capacity_exception : public raft_exception
{
public:
    explicit demand_exceeds_capacity_exception( const std::string &what )
        : raft_exception( what )
    {
    }
};

/** Network substrate ("oar") failures: socket setup, peer loss, etc. */
class net_exception : public raft_exception
{
public:
    explicit net_exception( const std::string &what )
        : raft_exception( what )
    {
    }
};

/**
 * Blocking stream operation woken by graph-wide cancellation: some kernel
 * failed terminally (or the watchdog declared the graph stalled) and the
 * runtime poisoned every stream. Distinct from closed_port_exception —
 * end-of-stream means the data completed; an abort means it did not. The
 * scheduler treats it as cancellation, not as a new failure.
 */
class stream_aborted_exception : public raft_exception
{
public:
    explicit stream_aborted_exception( const std::string &what )
        : raft_exception( what )
    {
    }
};

/**
 * Static analysis (raft::analyze, src/analysis/) found error-severity
 * diagnostics inside map::exe(): the graph is structurally unsafe to run
 * (unconnected ports, deadlock-prone cycles over finite FIFOs,
 * order-sensitive kernels inside replica lanes, ...). what() aggregates
 * every error diagnostic. Derives from graph_exception so code
 * catching topology errors keeps working.
 */
class analysis_error : public graph_exception
{
public:
    explicit analysis_error( const std::string &what )
        : graph_exception( what )
    {
    }
};

/** One kernel's terminal failure, as aggregated into a graph_error. */
struct failure_info
{
    std::string kernel_name;
    std::string message;
};

/**
 * Structured failure of a whole run: every kernel that failed terminally
 * (its restart policy exhausted or absent), plus watchdog stalls, collected
 * by the scheduler after graph-wide cancellation. what() names them all —
 * no failure is silently dropped in favour of the first.
 */
class graph_error : public raft_exception
{
public:
    explicit graph_error( std::vector<failure_info> failures )
        : raft_exception( format( failures ) ),
          failures_( std::move( failures ) )
    {
    }

    const std::vector<failure_info> &failures() const noexcept
    {
        return failures_;
    }

private:
    static std::string format( const std::vector<failure_info> &fails )
    {
        std::string out = "graph failed (" +
                          std::to_string( fails.size() ) +
                          " kernel failure" +
                          ( fails.size() == 1 ? "" : "s" ) + ")";
        for( const auto &f : fails )
        {
            out += "\n  - " + f.kernel_name + ": " + f.message;
        }
        return out;
    }

    std::vector<failure_info> failures_;
};

} /** end namespace raft **/

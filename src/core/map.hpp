/**
 * map.hpp — raft::map: application assembly and execution (§4.2, Figure 3).
 *
 * "RaftLib has an imperative mode of kernel connection via the link
 * function. The link function call has the effect of assigning one output
 * port of a given compute kernel to the input port of another compute
 * kernel. A map object is defined in the raft namespace of which the link
 * function is a member."
 *
 * exe() performs, in order (§4.2):
 *   1. connectivity check ("the graph is first checked to ensure it is
 *      fully connected"),
 *   2. automatic parallelization of clonable kernels on raft::out links,
 *   3. type checking across each link, splicing arithmetic conversion
 *      adapters where the endpoint types are convertible,
 *   4. stream allocation (heap ring buffers by default) and port binding,
 *   5. the async signal bus,
 *   6. monitor start, scheduler execution, monitor stop,
 *   7. the run report into run_options::stats_out (also before a
 *      graph_error is rethrown),
 *   8. teardown.
 * Thread placement is left to the OS: the mapper (mapping/partition.hpp)
 * is a study tool that exe() does not run.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/kernel.hpp"
#include "core/options.hpp"
#include "runtime/stats.hpp"

namespace raft {

class map
{
public:
    map()  = default;
    ~map() = default;

    map( const map & )            = delete;
    map &operator=( const map & ) = delete;

    /** @name link — connect src's output port to dst's input port.
     *
     * Port names may be omitted when the kernel has exactly one unlinked
     * port on the relevant side (the common case in the paper's examples).
     * The template parameter marks ordering semantics:
     * `map.link< raft::out >(a, b)` permits out-of-order processing and
     * thereby automatic replication of clonable kernels.
     */
    ///@{
    template <order O = in_order>
    kernel_pair link( kernel *src, kernel *dst )
    {
        return link_impl( src, "", dst, "", O );
    }

    template <order O = in_order>
    kernel_pair link( kernel *src, kernel *dst,
                      const std::string &dst_port )
    {
        return link_impl( src, "", dst, dst_port, O );
    }

    template <order O = in_order>
    kernel_pair link( kernel *src, const std::string &src_port,
                      kernel *dst, const std::string &dst_port )
    {
        return link_impl( src, src_port, dst, dst_port, O );
    }
    ///@}

    /** Execute the assembled application to completion. */
    void exe( const run_options &opts = {} );

    /** @name introspection (research platform) */
    ///@{
    const topology &graph() const noexcept { return topo_; }
    std::size_t owned_kernel_count() const noexcept
    {
        return owned_.size();
    }
    ///@}

private:
    kernel_pair link_impl( kernel *src, const std::string &src_port,
                           kernel *dst, const std::string &dst_port,
                           order ord );

    /** Take ownership of kernels created through kernel::make. */
    void adopt( kernel *k );

    /** Single unlinked port name on the given side, or throw. */
    static std::string resolve_port( kernel *k, port_container &ports,
                                     const std::string &requested,
                                     const char *side );

    topology topo_;
    std::vector<std::unique_ptr<kernel>> owned_;
    bool executed_{ false };
};

} /** end namespace raft **/

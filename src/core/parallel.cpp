#include "core/parallel.hpp"

#include <string>

#include "core/exceptions.hpp"

namespace raft {

namespace {
/** Elements an adapter moves per run() invocation before yielding back to
 *  the scheduler — enough to amortize the virtual-call cost, small enough
 *  to keep adapters responsive. Non-strict routes and merges move this many
 *  in one fifo_base::try_transfer_n call (one handshake entry per queue end
 *  instead of one per element). */
constexpr std::size_t adapter_burst = 64;
} /** end anonymous namespace **/

/* ------------------------------------------------------------------ */
/* split                                                                */
/* ------------------------------------------------------------------ */

split_kernel::split_kernel( const detail::type_meta &meta,
                            const std::size_t width,
                            std::unique_ptr<split_strategy> strategy,
                            const std::size_t initial_active )
    : in_( input.add_with_meta( "0", meta ) ), width_( width ),
      strategy_( std::move( strategy ) ),
      active_( initial_active == 0 || initial_active > width
                   ? width
                   : initial_active )
{
    for( std::size_t i = 0; i < width_; ++i )
    {
        output.add_with_meta( std::to_string( i ), meta );
    }
    set_name( "raft::split(" + std::string( strategy_->name() ) + ")" );
}

std::vector<fifo_base *> &split_kernel::cached_outputs()
{
    if( outs_cache_.empty() )
    {
        /** the lanes "0".."width-1" are the only outputs, in order **/
        for( auto &p : output )
        {
            outs_cache_.push_back( &p.raw() );
        }
    }
    return outs_cache_;
}

std::vector<fifo_base *> &split_kernel::routable_outputs()
{
    auto &outs = cached_outputs();

    /** apply a pending strategy swap (single consumer: this thread) **/
    const auto req =
        requested_strategy_.exchange( -1, std::memory_order_acq_rel );
    if( req >= 0 )
    {
        strategy_ = make_split_strategy( static_cast<split_kind>( req ) );
        pending_choice_.reset(); /** choices don't survive the old deal **/
    }

    const auto n = active_.load( std::memory_order_acquire );
    if( n >= width_ )
    {
        cached_active_ = width_;
        return outs;
    }
    if( n != cached_active_ )
    {
        active_cache_.assign( outs.begin(),
                              outs.begin() +
                                  static_cast<std::ptrdiff_t>( n ) );
        cached_active_ = n;
        pending_choice_.reset(); /** may point past the new lane set **/
    }
    return active_cache_;
}

std::size_t split_kernel::route( fifo_base &in,
                                 std::vector<fifo_base *> &outs )
{
    const auto n = outs.size();
    if( strategy_->strict() )
    {
        /** strict dealing: the element is bound to one stream; if that
         *  stream is full the adapter waits (the choice is cached so
         *  the sequence position is not consumed by a failed try) **/
        if( !pending_choice_ )
        {
            pending_choice_ = strategy_->choose( outs );
        }
        fifo_base &o = *outs[ *pending_choice_ % n ];
        if( o.read_closed() )
        {
            pending_choice_.reset(); /** dead replica: skip the slot **/
            return 0;
        }
        try
        {
            if( in.try_transfer_to( o ) )
            {
                pending_choice_.reset();
                return 1;
            }
        }
        catch( const closed_port_exception & )
        {
            pending_choice_.reset();
        }
        return 0;
    }
    const auto pref = strategy_->choose( outs );
    for( std::size_t k = 0; k < n; ++k )
    {
        fifo_base &o = *outs[ ( pref + k ) % n ];
        if( o.read_closed() )
        {
            continue; /** that replica terminated early **/
        }
        try
        {
            /** non-strict: the whole burst may go to one replica, so move
             *  it batched under a single handshake per queue end **/
            const auto moved = in.try_transfer_n( o, adapter_burst );
            if( moved > 0 )
            {
                return moved;
            }
        }
        catch( const closed_port_exception & )
        {
            continue;
        }
    }
    return 0;
}

kstatus split_kernel::run()
{
    fifo_base &in = in_.raw();
    auto &outs    = routable_outputs();

    bool all_closed = true;
    for( const auto *o : cached_outputs() )
    {
        if( !o->read_closed() )
        {
            all_closed = false;
            break;
        }
    }
    if( all_closed )
    {
        return raft::stop; /** nobody left to feed **/
    }

    std::size_t moved = 0;
    while( moved < adapter_burst )
    {
        const auto k = route( in, outs );
        if( k == 0 )
        {
            break;
        }
        moved += k;
    }
    if( moved > 0 )
    {
        idle_.reset();
        return raft::proceed;
    }
    if( in.drained() )
    {
        return raft::stop;
    }
    idle_.pause();
    return raft::proceed;
}

bool split_kernel::ready() const
{
    if( in_.size() == 0 )
    {
        return in_.drained(); /** run() stops **/
    }
    if( pending_choice_ )
    {
        /** strict dealing: the element waits for this one lane (an
         *  elastic resize since the choice was made resets it in run()) **/
        return outs_cache_[ *pending_choice_ % cached_active_ ]->writable();
    }
    /** a lane with space takes the element; a closed one is skipped, or
     *  ends the split once every lane is closed **/
    const auto n = active();
    std::size_t lane = 0;
    for( const auto &p : output )
    {
        if( lane++ == n )
        {
            break;
        }
        if( p.writable() )
        {
            return true;
        }
    }
    return false;
}

/* ------------------------------------------------------------------ */
/* reduce                                                               */
/* ------------------------------------------------------------------ */

reduce_kernel::reduce_kernel( const detail::type_meta &meta,
                              const std::size_t width )
    : out_( output.add_with_meta( "0", meta ) )
{
    for( std::size_t i = 0; i < width; ++i )
    {
        input.add_with_meta( std::to_string( i ), meta );
    }
    set_name( "raft::reduce" );
}

std::vector<fifo_base *> &reduce_kernel::cached_inputs()
{
    if( ins_cache_.empty() )
    {
        /** the lanes "0".."width-1" are the only inputs, in order **/
        for( auto &p : input )
        {
            ins_cache_.push_back( &p.raw() );
        }
    }
    return ins_cache_;
}

std::size_t reduce_kernel::merge( std::vector<fifo_base *> &ins,
                                  fifo_base &out )
{
    const auto n = ins.size();
    for( std::size_t k = 0; k < n; ++k )
    {
        const auto i     = ( scan_ + k ) % n;
        const auto moved = ins[ i ]->try_transfer_n( out, adapter_burst );
        if( moved > 0 )
        {
            scan_ = ( i + 1 ) % n;
            return moved;
        }
    }
    return 0;
}

kstatus reduce_kernel::run()
{
    fifo_base &out = out_.raw();
    auto &ins      = cached_inputs();

    std::size_t moved = 0;
    while( moved < adapter_burst )
    {
        const auto k = merge( ins, out );
        if( k == 0 )
        {
            break;
        }
        moved += k;
    }
    if( moved > 0 )
    {
        idle_.reset();
        return raft::proceed;
    }
    bool all_drained = true;
    for( const auto *f : ins )
    {
        if( !f->drained() )
        {
            all_drained = false;
            break;
        }
    }
    if( all_drained )
    {
        return raft::stop;
    }
    idle_.pause();
    return raft::proceed;
}

bool reduce_kernel::ready() const
{
    /** merge() never blocks, but a run() with nowhere to go only pauses,
     *  and the pool would repeat it for the whole quantum **/
    return any_input_ready() && outputs_writable();
}

/* ------------------------------------------------------------------ */
/* convert                                                              */
/* ------------------------------------------------------------------ */

convert_kernel::convert_kernel( const detail::type_meta &in_meta,
                                const detail::type_meta &out_meta )
    : in_( input.add_with_meta( "0", in_meta ) ),
      out_( output.add_with_meta( "0", out_meta ) )
{
    set_name( "raft::convert(" + in_meta.name + "->" + out_meta.name + ")" );
}

kstatus convert_kernel::run()
{
    fifo_base &in  = in_.raw();
    fifo_base &out = out_.raw();
    for( std::size_t i = 0; i < adapter_burst; ++i )
    {
        double value = 0.0;
        signal sig   = none;
        if( !in.try_pop_as_double( value, sig ) )
        {
            if( in.drained() )
            {
                return raft::stop;
            }
            idle_.pause();
            return raft::proceed;
        }
        detail::backoff b;
        while( !out.try_push_from_double( value, sig ) )
        {
            b.pause(); /** try_push throws closed_port if reader died **/
        }
        idle_.reset();
    }
    return raft::proceed;
}

/* ------------------------------------------------------------------ */
/* rewrite passes                                                       */
/* ------------------------------------------------------------------ */

std::size_t apply_auto_parallel(
    topology &topo,
    const std::size_t width,
    const split_kind strategy,
    std::vector<std::unique_ptr<kernel>> &owned,
    const std::size_t initial_active,
    std::vector<replica_group> *groups )
{
    if( width <= 1 )
    {
        return 0;
    }
    std::size_t replicated = 0;
    /** snapshot: kernels added by the rewrite must not be re-examined **/
    const auto snapshot = topo.kernels();
    for( kernel *k : snapshot )
    {
        if( !k->clone_supported() )
        {
            continue;
        }
        /** every stream touching k must permit out-of-order processing **/
        std::vector<edge> in_e, out_e;
        bool eligible = true;
        for( const auto &e : topo.edges() )
        {
            if( e.dst == k )
            {
                in_e.push_back( e );
                eligible = eligible && ( e.ord == raft::out );
            }
            if( e.src == k )
            {
                out_e.push_back( e );
                eligible = eligible && ( e.ord == raft::out );
            }
        }
        if( !eligible || ( in_e.empty() && out_e.empty() ) )
        {
            continue;
        }

        /** replicas[0] is the original kernel **/
        std::vector<kernel *> replicas{ k };
        for( std::size_t i = 1; i < width; ++i )
        {
            kernel *c = k->clone();
            if( c == nullptr )
            {
                break;
            }
            c->set_name( k->name() + "~" + std::to_string( i ) );
            owned.emplace_back( c );
            replicas.push_back( c );
        }
        const auto w = replicas.size();
        if( w <= 1 )
        {
            continue;
        }

        replica_group group;
        group.kernel_name = k->name();
        group.replicas    = replicas;

        /** rebuild the edge list around k **/
        std::vector<edge> rebuilt;
        for( const auto &e : topo.edges() )
        {
            if( e.dst == k )
            {
                const auto &meta = e.src->output[ e.src_port ].meta();
                auto *sp         = new split_kernel(
                    meta, w, make_split_strategy( strategy ),
                    initial_active );
                owned.emplace_back( sp );
                group.splits.push_back( sp );
                rebuilt.push_back(
                    edge{ e.src, e.src_port, sp, "0", e.ord } );
                for( std::size_t i = 0; i < w; ++i )
                {
                    rebuilt.push_back( edge{ sp, std::to_string( i ),
                                             replicas[ i ], e.dst_port,
                                             e.ord } );
                }
            }
            else if( e.src == k )
            {
                const auto &meta = k->output[ e.src_port ].meta();
                auto *rd         = new reduce_kernel( meta, w );
                owned.emplace_back( rd );
                group.reduces.push_back( rd );
                for( std::size_t i = 0; i < w; ++i )
                {
                    rebuilt.push_back( edge{ replicas[ i ], e.src_port,
                                             rd, std::to_string( i ),
                                             e.ord } );
                }
                rebuilt.push_back(
                    edge{ rd, "0", e.dst, e.dst_port, e.ord } );
            }
            else
            {
                rebuilt.push_back( e );
            }
        }
        topology fresh;
        for( auto &e : rebuilt )
        {
            fresh.add_edge( e );
        }
        topo = std::move( fresh );
        if( groups != nullptr )
        {
            groups->push_back( std::move( group ) );
        }
        ++replicated;
    }
    return replicated;
}

void apply_type_conversions(
    topology &topo,
    std::vector<std::unique_ptr<kernel>> &owned )
{
    auto &edges = topo.edges();
    std::vector<edge> appended;
    for( auto &e : edges )
    {
        const auto &src_meta = e.src->output[ e.src_port ].meta();
        const auto &dst_meta = e.dst->input[ e.dst_port ].meta();
        if( src_meta.index == dst_meta.index )
        {
            continue;
        }
        if( !src_meta.arithmetic || !dst_meta.arithmetic )
        {
            throw link_type_exception(
                "link " + e.src->name() + "." + e.src_port + " (" +
                src_meta.name + ") -> " + e.dst->name() + "." +
                e.dst_port + " (" + dst_meta.name +
                "): types differ and are not convertible" );
        }
        auto *conv = new convert_kernel( src_meta, dst_meta );
        owned.emplace_back( conv );
        appended.push_back( edge{ conv, "0", e.dst, e.dst_port, e.ord } );
        e.dst      = conv;
        e.dst_port = "0";
    }
    for( auto &e : appended )
    {
        topo.add_edge( e );
    }
}

} /** end namespace raft **/

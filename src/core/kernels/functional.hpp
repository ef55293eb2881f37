/**
 * functional.hpp — functional-style standard kernels.
 *
 * The paper positions RaftLib as "interfaces similar to those found in
 * the C++ standard library" (§6) so users compose pipelines the way they
 * compose algorithms. These kernels round out the library:
 *
 *  - transform<A,B> : per-element function application (std::transform)
 *  - filter<T>      : predicate selection (std::copy_if) — the
 *                     data-dependent-rate behaviour §3 discusses
 *  - tee<T>         : duplicate a stream to N consumers
 *  - merge<T>       : combine N streams into one (arrival order)
 *  - batch<T> / unbatch<T> : group elements into vectors and back,
 *                     amortizing per-element costs over coarse links
 *
 * transform and filter are clonable when constructed from copyable
 * callables, so raft::out links replicate them automatically.
 */
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/kernel.hpp"
#include "core/parallel.hpp"

namespace raft {

/** Apply fn to every element: one in ("0"), one out ("0"). */
template <class A, class B = A> class transform : public kernel
{
public:
    using fn_t = std::function<B( const A & )>;

    explicit transform( fn_t fn )
        : kernel(), in_( input.addPort<A>( "0" ) ),
          out_( output.addPort<B>( "0" ) ), fn_( std::move( fn ) )
    {
    }

    kstatus run() override
    {
        auto v   = in_.pop_s<A>();
        auto out = out_.allocate_s<B>();
        ( *out ) = fn_( *v );
        return raft::proceed;
    }

    bool clone_supported() const override { return true; }
    kernel *clone() const override { return new transform( fn_ ); }

private:
    port &in_;
    port &out_;
    fn_t fn_;
};

/** Forward elements satisfying pred; drop the rest (§3's dynamic
 *  downstream volume). */
template <class T> class filter : public kernel
{
public:
    using pred_t = std::function<bool( const T & )>;

    explicit filter( pred_t pred )
        : kernel(), in_( input.addPort<T>( "0" ) ),
          out_( output.addPort<T>( "0" ) ), pred_( std::move( pred ) )
    {
    }

    kstatus run() override
    {
        auto v = in_.pop_s<T>();
        if( pred_( *v ) )
        {
            out_.push<T>( *v );
        }
        return raft::proceed;
    }

    bool clone_supported() const override { return true; }
    kernel *clone() const override { return new filter( pred_ ); }

private:
    port &in_;
    port &out_;
    pred_t pred_;
};

/** Duplicate every element to `width` output streams ("0".."w-1"). */
template <class T> class tee : public kernel
{
public:
    explicit tee( const std::size_t width )
        : kernel(), in_( input.addPort<T>( "0" ) )
    {
        for( std::size_t i = 0; i < width; ++i )
        {
            output.addPort<T>( std::to_string( i ) );
        }
    }

    kstatus run() override
    {
        auto v = in_.pop_s<T>();
        /** the lanes are the only outputs, in declaration order **/
        for( auto &p : output )
        {
            p.push<T>( *v );
        }
        return raft::proceed;
    }

private:
    port &in_;
};

/** Combine `width` input streams ("0".."w-1") into one, in arrival
 *  order; completes when every input drains. It is the reduce adapter of
 *  auto-parallelization with its element type fixed, so it moves up to
 *  adapter_burst elements per transfer, and on the pool it runs inside the
 *  dispatch of the kernel that reads its output. */
template <class T> class merge : public reduce_kernel
{
public:
    explicit merge( const std::size_t width )
        : reduce_kernel( detail::type_meta::of<T>(), width )
    {
        set_name( "raft::merge" );
    }
};

/** Group `size` consecutive elements into a std::vector<T>; the final
 *  partial group is flushed at end of stream. */
template <class T> class batch : public kernel
{
public:
    explicit batch( const std::size_t size )
        : kernel(), in_( input.addPort<T>( "0" ) ),
          out_( output.addPort<std::vector<T>>( "0" ) ),
          size_( size == 0 ? 1 : size )
    {
        pending_.reserve( size_ );
    }

    kstatus run() override
    {
        T v{};
        try
        {
            in_.pop<T>( v );
        }
        catch( const closed_port_exception & )
        {
            if( !pending_.empty() )
            {
                out_.push<std::vector<T>>( std::move( pending_ ) );
                pending_ = {};
            }
            throw;
        }
        pending_.push_back( std::move( v ) );
        if( pending_.size() >= size_ )
        {
            out_.push<std::vector<T>>( std::move( pending_ ) );
            pending_ = {};
            pending_.reserve( size_ );
        }
        return raft::proceed;
    }

private:
    port &in_;
    port &out_;
    std::size_t size_;
    std::vector<T> pending_;
};

/** Flatten a std::vector<T> stream back into elements. */
template <class T> class unbatch : public kernel
{
public:
    unbatch()
        : kernel(), in_( input.addPort<std::vector<T>>( "0" ) ),
          out_( output.addPort<T>( "0" ) )
    {
    }

    kstatus run() override
    {
        auto group = in_.pop_s<std::vector<T>>();
        for( auto &v : *group )
        {
            out_.push<T>( std::move( v ) );
        }
        return raft::proceed;
    }

private:
    port &in_;
    port &out_;
};

} /** end namespace raft **/

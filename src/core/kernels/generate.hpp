/**
 * generate.hpp — number-stream source (Figures 1 & 3: "two random number
 * generators are instantiated, each of which sends a stream of numbers").
 */
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <random>

#include "core/kernel.hpp"

namespace raft {

/**
 * Emits `count` values of T on output port "0" and stops. The default
 * generator is a uniform pseudo-random stream seeded per kernel instance;
 * pass a function (value index → T) for deterministic streams.
 */
template <class T> class generate : public kernel
{
public:
    using gen_fn = std::function<T( std::size_t )>;

    explicit generate( const std::size_t count )
        : generate( count, gen_fn{} )
    {
    }

    generate( const std::size_t count, gen_fn fn )
        : kernel(), out_( output.addPort<T>( "0" ) ), count_( count ),
          fn_( std::move( fn ) )
    {
        if( !fn_ )
        {
            std::mt19937_64 eng{ 0x9e3779b97f4a7c15ull ^ get_id() };
            auto engine = std::make_shared<std::mt19937_64>( eng );
            fn_ = [ engine ]( std::size_t ) {
                return static_cast<T>( ( *engine )() % 1'000'000 );
            };
        }
    }

    kstatus run() override
    {
        if( sent_ == count_ )
        {
            return raft::stop;
        }
        auto out = out_.allocate_s<T>();
        ( *out ) = fn_( sent_ );
        if( ++sent_ == count_ )
        {
            out.set_signal( raft::eos );
            return raft::stop;
        }
        return raft::proceed;
    }

private:
    port &out_;
    std::size_t count_;
    std::size_t sent_{ 0 };
    gen_fn fn_;
};

} /** end namespace raft **/

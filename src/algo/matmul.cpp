#include "algo/matmul.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace raft::algo {

matrix matrix::random( const std::size_t dim, const std::uint64_t seed )
{
    matrix m( dim );
    std::mt19937_64 eng( seed );
    std::uniform_real_distribution<double> dist( -1.0, 1.0 );
    for( auto &x : m.a )
    {
        x = dist( eng );
    }
    return m;
}

matrix multiply_reference( const matrix &A, const matrix &B )
{
    if( A.n != B.n )
    {
        throw std::invalid_argument( "dimension mismatch" );
    }
    const auto n = A.n;
    matrix C( n );
    constexpr std::size_t bs = 32;
    for( std::size_t ii = 0; ii < n; ii += bs )
    {
        for( std::size_t kk = 0; kk < n; kk += bs )
        {
            for( std::size_t jj = 0; jj < n; jj += bs )
            {
                const auto ie = std::min( ii + bs, n );
                const auto ke = std::min( kk + bs, n );
                const auto je = std::min( jj + bs, n );
                for( std::size_t i = ii; i < ie; ++i )
                {
                    for( std::size_t k = kk; k < ke; ++k )
                    {
                        const double aik = A.at( i, k );
                        for( std::size_t j = jj; j < je; ++j )
                        {
                            C.at( i, j ) += aik * B.at( k, j );
                        }
                    }
                }
            }
        }
    }
    return C;
}

namespace {

std::size_t tiles_per_dim( const std::size_t n )
{
    return ( n + mm_tile_dim - 1 ) / mm_tile_dim;
}

} /** end anonymous namespace **/

mm_source::mm_source( const std::size_t n )
    : kernel(), out_( output.addPort<mm_work>( "0" ) ),
      tiles_per_dim_( tiles_per_dim( n ) ),
      tiles_( tiles_per_dim_ * tiles_per_dim_ )
{
}

kstatus mm_source::run()
{
    if( next_ >= tiles_ )
    {
        return raft::stop;
    }
    const auto t = static_cast<std::uint32_t>( tiles_per_dim_ );
    auto out     = out_.allocate_s<mm_work>();
    out->tile_r  = static_cast<std::uint32_t>( next_ ) / t;
    out->tile_c  = static_cast<std::uint32_t>( next_ ) % t;
    ++next_;
    if( next_ >= tiles_ )
    {
        out.set_signal( raft::eos );
        return raft::stop;
    }
    return raft::proceed;
}

mm_multiply::mm_multiply( const matrix *A, const matrix *B )
    : kernel(), in_( input.addPort<mm_work>( "0" ) ),
      out_( output.addPort<mm_tile>( "0" ) ), A_( A ), B_( B )
{
}

kstatus mm_multiply::run()
{
    auto w   = in_.pop_s<mm_work>();
    auto out = out_.allocate_s<mm_tile>();
    out->tile_r  = w->tile_r;
    out->tile_c  = w->tile_c;
    const auto n = A_->n;
    const auto r0 =
        static_cast<std::size_t>( w->tile_r ) * mm_tile_dim;
    const auto c0 =
        static_cast<std::size_t>( w->tile_c ) * mm_tile_dim;
    for( std::size_t i = 0; i < mm_tile_dim && r0 + i < n; ++i )
    {
        for( std::size_t k = 0; k < n; ++k )
        {
            const double aik = A_->at( r0 + i, k );
            for( std::size_t j = 0; j < mm_tile_dim && c0 + j < n; ++j )
            {
                out->v[ i * mm_tile_dim + j ] +=
                    aik * B_->at( k, c0 + j );
            }
        }
    }
    return raft::proceed;
}

mm_sink::mm_sink( matrix *C )
    : kernel(), in_( input.addPort<mm_tile>( "0" ) ), C_( C )
{
}

kstatus mm_sink::run()
{
    auto t       = in_.pop_s<mm_tile>();
    const auto n = C_->n;
    const auto r0 =
        static_cast<std::size_t>( t->tile_r ) * mm_tile_dim;
    const auto c0 =
        static_cast<std::size_t>( t->tile_c ) * mm_tile_dim;
    for( std::size_t i = 0; i < mm_tile_dim && r0 + i < n; ++i )
    {
        for( std::size_t j = 0; j < mm_tile_dim && c0 + j < n; ++j )
        {
            C_->at( r0 + i, c0 + j ) = t->v[ i * mm_tile_dim + j ];
        }
    }
    return raft::proceed;
}

} /** end namespace raft::algo **/

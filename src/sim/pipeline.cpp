#include "sim/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace raft::sim {

namespace {

class pipeline_sim
{
public:
    explicit pipeline_sim( const pipeline_desc &desc )
        : desc_( desc ), eng_(), rng_( desc.seed )
    {
        const auto n = desc_.stages.size();
        queue_len_.assign( n, 0 );
        busy_.assign( n, 0 );
        blocked_.assign( n, 0 );
        busy_integral_.assign( n, 0.0 );
        queue_integral_.assign( n, 0.0 );
        blocked_integral_.assign( n, 0.0 );
        last_t_.assign( n, 0.0 );
        completed_.assign( n, 0 );
        source_remaining_ = desc_.items;
    }

    pipeline_result run()
    {
        admit( 0 );
        eng_.run();
        const auto n = desc_.stages.size();
        const auto T = eng_.now();
        pipeline_result r;
        r.makespan_s = T;
        r.throughput_items_per_s =
            T > 0.0 ? static_cast<double>( desc_.items ) / T : 0.0;
        for( std::size_t i = 0; i < n; ++i )
        {
            integrate( i ); /** close out to T **/
            stage_metrics m;
            m.name      = desc_.stages[ i ].name;
            m.completed = completed_[ i ];
            const auto denom =
                T * static_cast<double>( desc_.stages[ i ].servers );
            m.utilization =
                denom > 0.0 ? busy_integral_[ i ] / denom : 0.0;
            m.mean_queue_len =
                T > 0.0 ? queue_integral_[ i ] / T : 0.0;
            m.blocked_fraction =
                denom > 0.0 ? blocked_integral_[ i ] / denom : 0.0;
            r.stages.push_back( std::move( m ) );
        }
        return r;
    }

private:
    void integrate( const std::size_t i )
    {
        const auto dt = eng_.now() - last_t_[ i ];
        if( dt > 0.0 )
        {
            busy_integral_[ i ] += static_cast<double>( busy_[ i ] ) * dt;
            queue_integral_[ i ] +=
                static_cast<double>( queue_len_[ i ] ) * dt;
            blocked_integral_[ i ] +=
                static_cast<double>( blocked_[ i ] ) * dt;
            last_t_[ i ] = eng_.now();
        }
        else
        {
            last_t_[ i ] = eng_.now();
        }
    }

    std::size_t free_servers( const std::size_t i ) const
    {
        return desc_.stages[ i ].servers - busy_[ i ] - blocked_[ i ];
    }

    bool input_available( const std::size_t i ) const
    {
        return i == 0 ? source_remaining_ > 0 : queue_len_[ i ] > 0;
    }

    std::size_t active_bandwidth_servers() const
    {
        std::size_t a = 0;
        for( std::size_t i = 0; i < desc_.stages.size(); ++i )
        {
            if( desc_.stages[ i ].uses_shared_bandwidth )
            {
                a += busy_[ i ];
            }
        }
        return a;
    }

    double sample_service( const std::size_t i )
    {
        const auto &st = desc_.stages[ i ];
        double rate    = st.service_rate;
        if( st.uses_shared_bandwidth && desc_.shared_bandwidth_rate > 0.0 )
        {
            /** processor-sharing approximation over the shared pool:
             *  the per-server rate shrinks as flagged servers pile on **/
            const auto active = static_cast<double>(
                std::max<std::size_t>( 1, active_bandwidth_servers() ) );
            rate = std::min( rate,
                             desc_.shared_bandwidth_rate / active );
        }
        if( rate <= 0.0 )
        {
            rate = 1e-12;
        }
        switch( st.dist )
        {
            case service_dist::deterministic:
                return 1.0 / rate;
            case service_dist::uniform:
            {
                std::uniform_real_distribution<double> u( 0.0,
                                                          2.0 / rate );
                return u( rng_ );
            }
            case service_dist::hyperexponential:
            {
                /** balanced-means H2 with SCV = 4: branch prob
                 *  p = (1 + sqrt(3/5)) / 2, branch rates 2 p rate and
                 *  2 (1-p) rate keep the mean at 1/rate **/
                static const double p =
                    0.5 * ( 1.0 + std::sqrt( 3.0 / 5.0 ) );
                std::uniform_real_distribution<double> u( 0.0, 1.0 );
                const double branch_rate =
                    u( rng_ ) < p ? 2.0 * p * rate
                                  : 2.0 * ( 1.0 - p ) * rate;
                std::exponential_distribution<double> e( branch_rate );
                return e( rng_ );
            }
            case service_dist::exponential:
            default:
            {
                std::exponential_distribution<double> exp_d( rate );
                return exp_d( rng_ );
            }
        }
    }

    /** Pull available input into free servers at stage i. */
    void admit( const std::size_t i )
    {
        while( free_servers( i ) > 0 && input_available( i ) )
        {
            integrate( i );
            if( i == 0 )
            {
                --source_remaining_;
            }
            else
            {
                --queue_len_[ i ];
                unblock_upstream( i );
            }
            ++busy_[ i ];
            const auto dt = sample_service( i );
            eng_.schedule_in( dt, [ this, i ]() { complete( i ); } );
        }
    }

    /** A slot opened in queue i: a blocked stage i-1 server's held item
     *  moves in, freeing that server. */
    void unblock_upstream( const std::size_t i )
    {
        if( i == 0 || blocked_[ i - 1 ] == 0 )
        {
            return;
        }
        integrate( i - 1 );
        integrate( i );
        --blocked_[ i - 1 ];
        ++queue_len_[ i ];
        ++completed_[ i - 1 ];
        admit( i - 1 );
    }

    void complete( const std::size_t i )
    {
        integrate( i );
        const auto last = desc_.stages.size() - 1;
        if( i == last )
        {
            --busy_[ i ];
            ++completed_[ i ];
            admit( i );
            return;
        }
        if( queue_len_[ i + 1 ] <
            desc_.stages[ i + 1 ].queue_capacity )
        {
            integrate( i + 1 );
            --busy_[ i ];
            ++queue_len_[ i + 1 ];
            ++completed_[ i ];
            admit( i + 1 );
            admit( i );
        }
        else
        {
            /** manufacturing blocking: hold the item in the server **/
            --busy_[ i ];
            ++blocked_[ i ];
        }
    }

    pipeline_desc desc_;
    des_engine eng_;
    std::mt19937_64 rng_;
    std::vector<std::size_t> queue_len_, busy_, blocked_;
    std::vector<double> busy_integral_, queue_integral_,
        blocked_integral_, last_t_;
    std::vector<std::uint64_t> completed_;
    std::uint64_t source_remaining_{ 0 };
};

} /** end anonymous namespace **/

pipeline_result simulate_pipeline( const pipeline_desc &desc )
{
    if( desc.stages.empty() )
    {
        throw std::invalid_argument( "pipeline needs >= 1 stage" );
    }
    pipeline_sim sim( desc );
    return sim.run();
}

} /** end namespace raft::sim **/

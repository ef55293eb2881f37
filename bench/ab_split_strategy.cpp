/**
 * E7 — ablation: round-robin vs least-utilized split strategies (§4.1).
 *
 * Replicated worker kernels with deliberately skewed service times: under
 * round-robin every replica receives the same share, so the slow replica
 * gates throughput; least-utilized routes work away from the backed-up
 * queue. Reports wall time and per-replica item counts for both
 * strategies.
 */
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include <raft.hpp>

namespace {

using i64 = std::int64_t;

std::mutex count_mutex;
std::vector<std::size_t> replica_counts;

/** Worker whose first instance is 8x slower than its clones. */
class skewed_worker : public raft::kernel
{
public:
    explicit skewed_worker( const int generation = 0 )
        : generation_( generation )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
        {
            const std::lock_guard<std::mutex> lock( count_mutex );
            index_ = replica_counts.size();
            replica_counts.push_back( 0 );
        }
    }

    raft::kstatus run() override
    {
        auto v = input[ "0" ].pop_s<i64>();
        /** the original instance burns extra cycles per element **/
        const int spin = generation_ == 0 ? 400'000 : 4'000;
        volatile i64 acc = *v;
        for( int i = 0; i < spin; ++i )
        {
            acc = acc + i;
        }
        auto out = output[ "0" ].allocate_s<i64>();
        ( *out ) = acc;
        {
            const std::lock_guard<std::mutex> lock( count_mutex );
            ++replica_counts[ index_ ];
        }
        return raft::proceed;
    }

    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override
    {
        return new skewed_worker( generation_ + 1 );
    }

private:
    int generation_;
    std::size_t index_{ 0 };
};

double run_strategy( const raft::split_kind kind,
                     const std::size_t items,
                     const std::size_t width )
{
    replica_counts.clear();
    std::vector<i64> out;
    raft::map m;
    auto p = m.link<raft::out>(
        raft::kernel::make<raft::generate<i64>>(
            items, []( std::size_t i ) { return i64( i ); } ),
        raft::kernel::make<skewed_worker>() );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );
    raft::run_options o;
    o.replication_width      = width;
    o.split_strategy         = kind;
    o.initial_queue_capacity = 256;
    o.dynamic_resize         = false; /** isolate the strategy **/
    const auto t0 = std::chrono::steady_clock::now();
    m.exe( o );
    const auto dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0 )
                        .count();
    std::printf( "  replica item counts:" );
    for( const auto c : replica_counts )
    {
        std::printf( " %zu", c );
    }
    std::printf( "  (completed %zu items)\n", out.size() );
    return dt;
}

} /** end anonymous namespace **/

int main()
{
    constexpr std::size_t items = 3'000;
    constexpr std::size_t width = 4;
    std::printf( "Ablation: split strategies with a skewed replica "
                 "(replica 0 is 100x slower), %zu items, width %zu\n\n",
                 items, width );

    std::printf( "round-robin:\n" );
    const auto rr =
        run_strategy( raft::split_kind::round_robin, items, width );
    std::printf( "  wall: %.3f s\n\n", rr );

    std::printf( "least-utilized:\n" );
    const auto lu =
        run_strategy( raft::split_kind::least_utilized, items, width );
    std::printf( "  wall: %.3f s\n\n", lu );

    std::printf( "least-utilized / round-robin wall-time ratio: %.2f "
                 "(<1 means the utilization-aware strategy wins, §4.1)\n",
                 lu / rr );
    return 0;
}

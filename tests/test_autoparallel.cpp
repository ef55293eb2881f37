/**
 * Automatic parallelization (§4.1): clone-based replication behind
 * split/reduce adapters, strategy selection, ordering semantics and the
 * seq_tag/reorder re-ordering paradigm.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <algo/corpus.hpp>
#include <raft.hpp>

namespace {

using i64 = std::int64_t;

/** Clonable stateless transform: doubles its input. */
class doubler : public raft::kernel
{
public:
    doubler()
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
    }
    raft::kstatus run() override
    {
        auto v   = input[ "0" ].pop_s<i64>();
        auto out = output[ "0" ].allocate_s<i64>();
        ( *out ) = 2 * ( *v );
        return raft::proceed;
    }
    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override { return new doubler(); }
};

raft::generate<i64> *seq_source( const std::size_t n )
{
    return raft::kernel::make<raft::generate<i64>>(
        n, []( std::size_t i ) { return static_cast<i64>( i ); } );
}

raft::run_options replicated_opts( const std::size_t width,
                                   const raft::split_kind strat )
{
    raft::run_options o;
    o.enable_auto_parallel = true;
    o.replication_width    = width;
    o.split_strategy       = strat;
    return o;
}

/** A least-utilized split run: `replicas` replicas, a corpus cut into
 *  `segment`-byte segments, rings of `capacity` slots (0 = default). */
struct spread_case
{
    std::size_t replicas;
    std::size_t corpus_bytes;
    std::size_t segment;
    std::size_t capacity;
};

/** The Fig. 10 graph's input cut finer: 24 MiB in 4 KiB segments. Short
 *  segments keep the replicas' queues near empty, which is where ties in
 *  the split's ranking decide who gets the next burst. */
constexpr spread_case fine_segments{ 4, 24u << 20, 4096, 0 };

/** wordcount_pool's input: 8 MiB in 64 KiB segments, 128 in all, to two
 *  replicas. Rings of 1,024 slots never fill, so a ranking reused across
 *  bursts sends every segment to one replica. */
constexpr spread_case roomy_rings{ 2, 8u << 20, 64u << 10, 1024 };

/**
 * filereader → search<ahocorasick> × replicas → write_each with the
 * default least-utilized split. Returns how many segments each replica
 * popped, read from the run report.
 */
std::vector<std::uint64_t>
segments_per_replica( const raft::scheduler_kind sched,
                      const spread_case &c )
{
    raft::algo::corpus_options copt;
    copt.size_bytes = c.corpus_bytes;
    copt.seed       = 10;
    copt.pattern    = "streamkernel";
    const auto corpus = std::make_shared<const std::string>(
        raft::algo::make_corpus( copt ) );

    std::vector<raft::match_t> hits;
    raft::map m;
    auto p = m.link<raft::out>(
        raft::kernel::make<raft::filereader>(
            corpus, copt.pattern.size() - 1, c.segment ),
        raft::kernel::make<raft::search<raft::ahocorasick>>(
            copt.pattern ) );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<raft::match_t>>(
                           std::back_inserter( hits ) ) );
    raft::runtime::perf_snapshot snap;
    auto o = replicated_opts( c.replicas, raft::split_kind::least_utilized );
    o.scheduler = sched;
    o.stats_out = &snap;
    if( c.capacity != 0 )
    {
        o.initial_queue_capacity = c.capacity;
    }
    m.exe( o );

    EXPECT_EQ( hits.size(),
               raft::algo::oracle_count( *corpus, copt.pattern ) );
    std::vector<std::uint64_t> popped;
    for( const auto &st : snap.streams )
    {
        if( st.src_kernel.find( "raft::split" ) != std::string::npos )
        {
            popped.push_back( st.popped );
        }
    }
    return popped;
}

/** An even deal gives each of the 4 replicas a quarter. No replica may
 *  take more than half, and none may starve: each gets at least a
 *  quarter of its fair share. A split that breaks every tie toward
 *  replica 0 fed two replicas and left two with nothing. */
void expect_spread( const std::vector<std::uint64_t> &popped )
{
    ASSERT_EQ( popped.size(), 4u );
    const auto total =
        std::accumulate( popped.begin(), popped.end(), std::uint64_t{ 0 } );
    EXPECT_EQ( total, fine_segments.corpus_bytes / fine_segments.segment );
    for( std::size_t i = 0; i < popped.size(); ++i )
    {
        EXPECT_LE( 2 * popped[ i ], total )
            << "replica " << i << " popped " << popped[ i ] << " of "
            << total << " segments";
        EXPECT_GE( 16 * popped[ i ], total )
            << "replica " << i << " popped " << popped[ i ] << " of "
            << total << " segments";
    }
}

/** Each of the two replicas gets at least a quarter of the segments. */
void expect_burst_spread( const std::vector<std::uint64_t> &popped )
{
    ASSERT_EQ( popped.size(), 2u );
    const auto total =
        std::accumulate( popped.begin(), popped.end(), std::uint64_t{ 0 } );
    EXPECT_EQ( total, roomy_rings.corpus_bytes / roomy_rings.segment );
    for( std::size_t i = 0; i < popped.size(); ++i )
    {
        EXPECT_GE( 4 * popped[ i ], total )
            << "replica " << i << " popped " << popped[ i ] << " of "
            << total << " segments";
    }
}

} /** end anonymous namespace **/

class autoparallel_strategies
    : public ::testing::TestWithParam<raft::split_kind>
{
};

TEST_P( autoparallel_strategies, replicated_results_correct )
{
    const std::size_t count = 20000;
    std::vector<i64> out;
    raft::map m;
    auto p = m.link<raft::out>( seq_source( count ),
                                raft::kernel::make<doubler>() );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );
    m.exe( replicated_opts( 4, GetParam() ) );

    ASSERT_EQ( out.size(), count );
    /** out-of-order permitted: compare as a multiset **/
    std::sort( out.begin(), out.end() );
    for( std::size_t i = 0; i < count; ++i )
    {
        EXPECT_EQ( out[ i ], static_cast<i64>( 2 * i ) );
    }
}

INSTANTIATE_TEST_SUITE_P(
    strategies, autoparallel_strategies,
    ::testing::Values( raft::split_kind::round_robin,
                       raft::split_kind::least_utilized ) );

TEST( autoparallel, graph_rewritten_with_adapters_and_clones )
{
    std::vector<i64> sink;
    raft::map m;
    auto p = m.link<raft::out>( seq_source( 10 ),
                                raft::kernel::make<doubler>() );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( sink ) ) );
    m.exe( replicated_opts( 3, raft::split_kind::least_utilized ) );
    /** source + split + 3 doublers + reduce + sink = 7 kernels **/
    EXPECT_EQ( m.graph().kernels().size(), 7u );
    /** 1 + 3 + 3 + 1 = 8 streams **/
    EXPECT_EQ( m.graph().edges().size(), 8u );
}

TEST( autoparallel, in_order_link_prevents_replication )
{
    std::vector<i64> out;
    raft::map m;
    auto p = m.link( seq_source( 100 ),
                     raft::kernel::make<doubler>() ); /** in_order **/
    m.link( &( p.dst ), raft::kernel::make<raft::write_each<i64>>(
                            std::back_inserter( out ) ) );
    m.exe( replicated_opts( 4, raft::split_kind::round_robin ) );
    EXPECT_EQ( m.graph().kernels().size(), 3u ); /** untouched **/
    /** strictly in order **/
    for( std::size_t i = 0; i < out.size(); ++i )
    {
        EXPECT_EQ( out[ i ], static_cast<i64>( 2 * i ) );
    }
}

TEST( autoparallel, width_one_is_a_noop )
{
    std::vector<i64> out;
    raft::map m;
    auto p = m.link<raft::out>( seq_source( 100 ),
                                raft::kernel::make<doubler>() );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );
    m.exe( replicated_opts( 1, raft::split_kind::round_robin ) );
    EXPECT_EQ( m.graph().kernels().size(), 3u );
    EXPECT_EQ( out.size(), 100u );
}

TEST( autoparallel, disabled_flag_is_a_noop )
{
    std::vector<i64> sink;
    raft::map m;
    auto p = m.link<raft::out>( seq_source( 100 ),
                                raft::kernel::make<doubler>() );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( sink ) ) );
    raft::run_options o;
    o.enable_auto_parallel = false;
    o.replication_width    = 8;
    m.exe( o );
    EXPECT_EQ( m.graph().kernels().size(), 3u );
}

TEST( autoparallel, non_clonable_kernel_not_replicated )
{
    std::vector<i64> out;
    raft::map m;
    /** write_each is not clonable even on raft::out links **/
    m.link<raft::out>( seq_source( 50 ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );
    m.exe( replicated_opts( 4, raft::split_kind::round_robin ) );
    EXPECT_EQ( m.graph().kernels().size(), 2u );
    EXPECT_EQ( out.size(), 50u );
}

TEST( autoparallel, seq_tag_reorder_restores_order )
{
    /** paradigm 3 of §4.1: process out of order, re-order later **/
    const std::size_t count = 5000;
    std::vector<i64> out;

    class tagged_doubler : public raft::kernel
    {
    public:
        tagged_doubler()
        {
            input.addPort<raft::seq_item<i64>>( "0" );
            output.addPort<raft::seq_item<i64>>( "0" );
        }
        raft::kstatus run() override
        {
            auto v   = input[ "0" ].pop_s<raft::seq_item<i64>>();
            auto o   = output[ "0" ].allocate_s<raft::seq_item<i64>>();
            o->seq   = v->seq;
            o->value = 2 * v->value;
            return raft::proceed;
        }
        bool clone_supported() const override { return true; }
        raft::kernel *clone() const override
        {
            return new tagged_doubler();
        }
    };

    raft::map m;
    auto a = m.link( seq_source( count ),
                     raft::kernel::make<raft::seq_tag<i64>>() );
    auto b = m.link<raft::out>( &( a.dst ),
                                raft::kernel::make<tagged_doubler>() );
    auto c = m.link<raft::out>( &( b.dst ),
                                raft::kernel::make<raft::reorder<i64>>() );
    m.link( &( c.dst ), raft::kernel::make<raft::write_each<i64>>(
                            std::back_inserter( out ) ) );
    m.exe( replicated_opts( 4, raft::split_kind::least_utilized ) );

    ASSERT_EQ( out.size(), count );
    for( std::size_t i = 0; i < count; ++i )
    {
        ASSERT_EQ( out[ i ], static_cast<i64>( 2 * i ) )
            << "order broken at " << i;
    }
}

TEST( autoparallel, two_stage_replication_composes )
{
    const std::size_t count = 8000;
    std::vector<i64> out;
    raft::map m;
    auto a = m.link<raft::out>( seq_source( count ),
                                raft::kernel::make<doubler>() );
    auto b = m.link<raft::out>( &( a.dst ),
                                raft::kernel::make<doubler>() );
    m.link<raft::out>( &( b.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );
    m.exe( replicated_opts( 2, raft::split_kind::round_robin ) );
    ASSERT_EQ( out.size(), count );
    std::sort( out.begin(), out.end() );
    for( std::size_t i = 0; i < count; ++i )
    {
        EXPECT_EQ( out[ i ], static_cast<i64>( 4 * i ) );
    }
}

TEST( split_strategy, round_robin_cycles )
{
    raft::round_robin_strategy rr;
    raft::ring_buffer<int> a( 4 ), b( 4 ), c( 4 );
    std::vector<raft::fifo_base *> outs{ &a, &b, &c };
    EXPECT_EQ( rr.choose( outs ), 0u );
    EXPECT_EQ( rr.choose( outs ), 1u );
    EXPECT_EQ( rr.choose( outs ), 2u );
    EXPECT_EQ( rr.choose( outs ), 0u );
}

TEST( split_strategy, least_utilized_picks_emptiest )
{
    /** stride 1 = rescan on every element **/
    raft::least_utilized_strategy lu( 1 );
    raft::ring_buffer<int> a( 4 ), b( 4 ), c( 4 );
    a.push( 1 );
    a.push( 2 );
    b.push( 1 );
    std::vector<raft::fifo_base *> outs{ &a, &b, &c };
    EXPECT_EQ( lu.choose( outs ), 2u );
    c.push( 1 );
    c.push( 2 );
    c.push( 3 );
    EXPECT_EQ( lu.choose( outs ), 1u );
}

TEST( split_strategy, least_utilized_rotates_ties )
{
    /** every output empty, so every call is a tie: the strategy the
     *  split adapter gets by default must visit each replica once in as
     *  many calls, not settle on one (replica 0 would take every burst at
     *  start-up, when all queues are empty) **/
    auto lu = raft::make_split_strategy( raft::split_kind::least_utilized );
    raft::ring_buffer<int> a( 4 ), b( 4 ), c( 4 ), d( 4 );
    std::vector<raft::fifo_base *> outs{ &a, &b, &c, &d };
    std::vector<int> picks( outs.size(), 0 );
    for( std::size_t call = 0; call < outs.size(); ++call )
    {
        const auto i = lu->choose( outs );
        ASSERT_LT( i, outs.size() );
        ++picks[ i ];
    }
    for( std::size_t i = 0; i < outs.size(); ++i )
    {
        EXPECT_EQ( picks[ i ], 1 ) << "replica " << i;
    }
}

TEST( split_strategy, least_utilized_caches_choice_for_stride )
{
    raft::least_utilized_strategy lu( 4 );
    raft::ring_buffer<int> a( 4 ), b( 4 );
    a.push( 1 );
    std::vector<raft::fifo_base *> outs{ &a, &b };
    /** rescan ranks b; the next 3 calls reuse the cached choice even
     *  though b becomes the fuller queue in between **/
    EXPECT_EQ( lu.choose( outs ), 1u );
    b.push( 1 );
    b.push( 2 );
    b.push( 3 );
    EXPECT_EQ( lu.choose( outs ), 1u );
    EXPECT_EQ( lu.choose( outs ), 1u );
    EXPECT_EQ( lu.choose( outs ), 1u );
    /** stride exhausted: the rescan sees a (1/4) < b (4/4) **/
    EXPECT_EQ( lu.choose( outs ), 0u );
}

TEST( split_strategy, least_utilized_cached_choice_survives_lane_shrink )
{
    raft::least_utilized_strategy lu( 8 );
    raft::ring_buffer<int> a( 4 ), b( 4 ), c( 4 );
    a.push( 1 );
    b.push( 1 );
    std::vector<raft::fifo_base *> outs{ &a, &b, &c };
    EXPECT_EQ( lu.choose( outs ), 2u ); /** cached: lane 2 **/
    /** the elastic controller retired lane 2: the cached index is out of
     *  range for the shrunk lane set, so the strategy rescans **/
    std::vector<raft::fifo_base *> shrunk{ &a, &b };
    const auto pick = lu.choose( shrunk );
    EXPECT_LT( pick, shrunk.size() );
}

TEST( split_strategy, least_utilized_spreads_segments_on_threads )
{
    expect_spread( segments_per_replica(
        raft::scheduler_kind::thread_per_kernel, fine_segments ) );
}

TEST( split_strategy, least_utilized_spreads_segments_on_the_pool )
{
    expect_spread(
        segments_per_replica( raft::scheduler_kind::pool, fine_segments ) );
}

TEST( split_strategy, least_utilized_spreads_bursts_on_threads )
{
    expect_burst_spread( segments_per_replica(
        raft::scheduler_kind::thread_per_kernel, roomy_rings ) );
}

TEST( split_strategy, least_utilized_spreads_bursts_on_the_pool )
{
    expect_burst_spread(
        segments_per_replica( raft::scheduler_kind::pool, roomy_rings ) );
}

TEST( split_strategy, factory_maps_kinds )
{
    auto rr = raft::make_split_strategy( raft::split_kind::round_robin );
    EXPECT_STREQ( rr->name(), "round-robin" );
    auto lu =
        raft::make_split_strategy( raft::split_kind::least_utilized );
    EXPECT_STREQ( lu->name(), "least-utilized" );
}

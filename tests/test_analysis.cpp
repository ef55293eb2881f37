/**
 * Static analysis layer: raft::analyze diagnostics over seeded bad graphs
 * (deadlock cycles, unconnected ports, out-of-order-unsafe replica lanes,
 * lossy conversions, restart/elastic misconfiguration), fail-fast behaviour
 * of map::exe() with its run_options::analysis opt-out, exact diagnostic
 * text on the map::link()/exe() error paths, and silence on healthy graphs.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <vector>

#include <raft.hpp>

namespace {

using i64 = std::int64_t;

raft::generate<i64> *seq_source( const std::size_t n )
{
    return raft::kernel::make<raft::generate<i64>>(
        n, []( std::size_t i ) { return static_cast<i64>( i ); } );
}

/** pass-through with one in / one out port — building block for cycles */
class relay : public raft::kernel
{
public:
    relay()
    {
        input.addPort<int>( "in" );
        output.addPort<int>( "out" );
    }
    raft::kstatus run() override { return raft::stop; }
};

/** clonable (replication candidate) but order-sensitive — exactly the
 *  combination auto-parallelization must not replicate */
class ooo_worker : public raft::kernel
{
public:
    ooo_worker()
    {
        input.addPort<int>( "in" );
        output.addPort<int>( "out" );
    }
    raft::kstatus run() override
    {
        int v = 0;
        input[ "in" ].pop( v );
        output[ "out" ].push( v );
        return raft::proceed;
    }
    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override
    {
        return raft::kernel::make<ooo_worker>();
    }
    bool order_sensitive() const override { return true; }
};

const raft::analysis::diagnostic *find_diag(
    const raft::analysis::report &r, const std::string &id )
{
    for( const auto &d : r.diagnostics )
    {
        if( d.id == id )
        {
            return &d;
        }
    }
    return nullptr;
}

} /** end anonymous namespace **/

TEST( analysis, deadlock_cycle_is_error_without_dynamic_resize )
{
    raft::map m;
    auto *a = raft::kernel::make<relay>();
    auto *b = raft::kernel::make<relay>();
    m.link( a, "out", b, "in" );
    m.link( b, "out", a, "in" );
    raft::run_options o;
    o.dynamic_resize         = false;
    o.initial_queue_capacity = 4;
    const auto rep           = raft::analyze( m, o );
    const auto *d            = find_diag( rep, "deadlock-cycle" );
    ASSERT_NE( d, nullptr );
    EXPECT_EQ( d->sev, raft::analysis::severity::error );
    /** capacity-aware: 2 FIFOs x 4 slots bound the loop **/
    EXPECT_NE( d->message.find( "8 total slots" ), std::string::npos )
        << d->message;
    EXPECT_FALSE( rep.ok() );
}

TEST( analysis, deadlock_cycle_sums_each_fifos_initial_capacity )
{
    /** one loop of 4-byte streams, one of a 4-byte and an 8-byte stream **/
    class wide_relay : public raft::kernel
    {
    public:
        wide_relay()
        {
            input.addPort<int>( "in" );
            output.addPort<std::int64_t>( "out" );
        }
        raft::kstatus run() override { return raft::stop; }
    };
    const auto cycle_message = []( raft::kernel *a, raft::kernel *b,
                                   const raft::run_options &o ) {
        raft::map m;
        m.link( a, "out", b, "in" );
        m.link( b, "out", a, "in" );
        const auto rep = raft::analyze( m, o );
        const auto *d  = find_diag( rep, "deadlock-cycle" );
        return d == nullptr ? std::string() : d->message;
    };
    raft::run_options o;
    o.dynamic_resize = false;
    /** default-sized: 16,384 int slots and 8,192 int64 slots hold 64 KiB **/
    auto msg = cycle_message( raft::kernel::make<relay>(),
                              raft::kernel::make<relay>(), o );
    EXPECT_NE( msg.find( "(32768 total slots)" ), std::string::npos ) << msg;
    msg = cycle_message( raft::kernel::make<relay>(),
                         raft::kernel::make<wide_relay>(), o );
    EXPECT_NE( msg.find( "(24576 total slots)" ), std::string::npos ) << msg;
    /** explicitly sized: every FIFO starts at the given count **/
    o.initial_queue_capacity = 100;
    msg = cycle_message( raft::kernel::make<relay>(),
                         raft::kernel::make<wide_relay>(), o );
    EXPECT_NE( msg.find( "(200 total slots)" ), std::string::npos ) << msg;
}

TEST( analysis, deadlock_cycle_downgrades_to_warning_with_resize )
{
    raft::map m;
    auto *a = raft::kernel::make<relay>();
    auto *b = raft::kernel::make<relay>();
    m.link( a, "out", b, "in" );
    m.link( b, "out", a, "in" );
    raft::run_options o; /** dynamic_resize defaults to true **/
    const auto rep = raft::analyze( m, o );
    const auto *d  = find_diag( rep, "deadlock-cycle" );
    ASSERT_NE( d, nullptr );
    EXPECT_EQ( d->sev, raft::analysis::severity::warning );
    EXPECT_NE( d->message.find( "resize rule" ), std::string::npos )
        << d->message;
}

TEST( analysis, unconnected_port_flagged_with_exact_text )
{
    raft::map m;
    auto *s = raft::kernel::make<raft::sum<i64, i64, i64>>();
    m.link( seq_source( 4 ), s, "input_a" );
    m.link( s, raft::kernel::make<raft::print<i64>>() );
    const auto rep = raft::analyze( m );
    const auto *d  = find_diag( rep, "unconnected-port" );
    ASSERT_NE( d, nullptr );
    EXPECT_EQ( d->sev, raft::analysis::severity::error );
    EXPECT_EQ( d->port, "input_b" );
    EXPECT_EQ( d->message,
               "input port 'input_b' of " + d->kernel +
                   " is not linked; the kernel would block on it forever" );
}

TEST( analysis, exe_fails_fast_on_error_diagnostics )
{
    raft::map m;
    auto *s = raft::kernel::make<raft::sum<i64, i64, i64>>();
    m.link( seq_source( 4 ), s, "input_a" );
    m.link( s, raft::kernel::make<raft::print<i64>>() );
    try
    {
        m.exe();
        FAIL() << "exe() must refuse an unconnected-port graph";
    }
    catch( const raft::analysis_error &e )
    {
        const std::string msg = e.what();
        EXPECT_NE( msg.find( "graph analysis failed" ), std::string::npos );
        EXPECT_NE( msg.find( "unconnected-port" ), std::string::npos );
        EXPECT_NE( msg.find( "raft::analyze" ), std::string::npos );
    }
}

TEST( analysis, exe_opt_out_restores_legacy_error_path )
{
    raft::map m;
    auto *s = raft::kernel::make<raft::sum<i64, i64, i64>>();
    m.link( seq_source( 4 ), s, "input_a" );
    m.link( s, raft::kernel::make<raft::print<i64>>() );
    raft::run_options o;
    o.analysis.enabled = false;
    try
    {
        m.exe( o );
        FAIL() << "the legacy per-port check must still throw";
    }
    catch( const raft::analysis_error & )
    {
        FAIL() << "analysis ran despite the opt-out";
    }
    catch( const raft::graph_exception &e )
    {
        EXPECT_NE( std::string( e.what() ).find( "is not linked" ),
                   std::string::npos );
    }
}

TEST( analysis, ooo_unsafe_replica_lane_flagged )
{
    raft::map m;
    auto *w = raft::kernel::make<ooo_worker>();
    m.link<raft::out>( raft::kernel::make<raft::generate<int>>(
                           8, []( std::size_t i )
                           { return static_cast<int>( i ); } ),
                       w, "in" );
    std::vector<int> out;
    m.link<raft::out>( w, raft::kernel::make<raft::write_each<int>>(
                              std::back_inserter( out ) ) );
    const auto rep = raft::analyze( m );
    const auto *d  = find_diag( rep, "ooo-unsafe-replica-lane" );
    ASSERT_NE( d, nullptr );
    EXPECT_EQ( d->sev, raft::analysis::severity::error );
    EXPECT_NE( d->message.find( "order-sensitive" ), std::string::npos );

    /** with auto-parallelization off the same shape is only advisory **/
    raft::run_options o;
    o.enable_auto_parallel = false;
    const auto rep2        = raft::analyze( m, o );
    const auto *d2         = find_diag( rep2, "ooo-unsafe-replica-lane" );
    ASSERT_NE( d2, nullptr );
    EXPECT_EQ( d2->sev, raft::analysis::severity::note );
}

TEST( analysis, in_order_links_keep_order_sensitive_kernel_silent )
{
    raft::map m;
    auto *w = raft::kernel::make<ooo_worker>();
    m.link( raft::kernel::make<raft::generate<int>>(
                8, []( std::size_t i ) { return static_cast<int>( i ); } ),
            w, "in" );
    std::vector<int> out;
    m.link( w, raft::kernel::make<raft::write_each<int>>(
                   std::back_inserter( out ) ) );
    const auto rep = raft::analyze( m );
    EXPECT_EQ( find_diag( rep, "ooo-unsafe-replica-lane" ), nullptr );
    EXPECT_TRUE( rep.ok() );
}

TEST( analysis, lossy_conversion_warns )
{
    raft::map m;
    std::vector<int> out;
    m.link( raft::kernel::make<raft::generate<double>>(
                4, []( std::size_t i )
                { return static_cast<double>( i ) + 0.5; } ),
            raft::kernel::make<raft::write_each<int>>(
                std::back_inserter( out ) ) );
    const auto rep = raft::analyze( m );
    const auto *d  = find_diag( rep, "lossy-conversion" );
    ASSERT_NE( d, nullptr );
    EXPECT_EQ( d->sev, raft::analysis::severity::warning );
    EXPECT_NE( d->message.find( "fractional values are truncated" ),
               std::string::npos );
    /** warnings never block execution by default **/
    EXPECT_TRUE( rep.ok() );
    m.exe();
    ASSERT_EQ( out.size(), 4u );
}

TEST( analysis, healthy_graph_is_clean_and_runs )
{
    const std::size_t count = 1000;
    std::vector<i64> out;
    raft::map m;
    auto linked = m.link( seq_source( count ),
                          raft::kernel::make<raft::sum<i64, i64, i64>>(),
                          "input_a" );
    m.link( seq_source( count ), &( linked.dst ), "input_b" );
    m.link( &( linked.dst ),
            raft::kernel::make<raft::write_each<i64>>(
                std::back_inserter( out ) ) );
    EXPECT_TRUE( raft::analyze( m ).clean() );
    m.exe();
    EXPECT_EQ( out.size(), count );
}

TEST( analysis, json_and_text_rendering )
{
    raft::map m;
    auto *a = raft::kernel::make<relay>();
    auto *b = raft::kernel::make<relay>();
    m.link( a, "out", b, "in" );
    m.link( b, "out", a, "in" );
    raft::run_options o;
    o.dynamic_resize = false;
    const auto rep   = raft::analyze( m, o );
    const auto text  = rep.to_string();
    EXPECT_NE( text.find( "[error] deadlock-cycle" ), std::string::npos );
    const auto json = rep.to_json();
    EXPECT_NE( json.find( "\"version\": 1" ), std::string::npos );
    EXPECT_NE( json.find( "\"id\": \"deadlock-cycle\"" ),
               std::string::npos );
    EXPECT_NE( json.find( "\"severity\": \"error\"" ), std::string::npos );
    EXPECT_NE( json.find( "\"summary\"" ), std::string::npos );
    /** diagnostics are ranked most severe first **/
    ASSERT_FALSE( rep.diagnostics.empty() );
    EXPECT_EQ( rep.diagnostics.front().sev,
               raft::analysis::severity::error );
}

TEST( analysis, empty_and_disconnected_graphs )
{
    raft::map empty;
    const auto rep = raft::analyze( empty );
    ASSERT_NE( find_diag( rep, "empty-graph" ), nullptr );

    raft::map m;
    m.link( seq_source( 1 ), raft::kernel::make<raft::print<i64>>() );
    m.link( seq_source( 1 ), raft::kernel::make<raft::print<i64>>() );
    const auto rep2 = raft::analyze( m );
    const auto *d   = find_diag( rep2, "disconnected-graph" );
    ASSERT_NE( d, nullptr );
    EXPECT_EQ( d->sev, raft::analysis::severity::error );
    /** the legacy exe()-time message is preserved verbatim **/
    try
    {
        m.exe();
        FAIL() << "disconnected graph must not execute";
    }
    catch( const raft::graph_exception &e )
    {
        EXPECT_STREQ( e.what(),
                      "application graph is not fully connected" );
    }
}

TEST( analysis, restart_and_elastic_configuration_checks )
{
    raft::map m;
    m.link( seq_source( 8 ), raft::kernel::make<raft::print<i64>>() );
    raft::run_options o;
    o.supervision.enabled                      = true;
    o.supervision.default_restart.max_restarts = 2;
    const auto rep = raft::analyze( m, o );
    const auto *d  = find_diag( rep, "restart-no-reset" );
    ASSERT_NE( d, nullptr );
    EXPECT_EQ( d->sev, raft::analysis::severity::warning );
    EXPECT_NE( d->message.find( "restart_safe" ), std::string::npos );

    raft::run_options bad;
    bad.elastic.enabled      = true;
    bad.elastic.min_replicas = 4;
    bad.elastic.max_replicas = 2;
    const auto rep2          = raft::analyze( m, bad );
    const auto *e            = find_diag( rep2, "elastic-bounds" );
    ASSERT_NE( e, nullptr );
    EXPECT_EQ( e->sev, raft::analysis::severity::error );
}

TEST( analysis, warnings_as_errors_promotes_failure )
{
    raft::map m;
    std::vector<int> out;
    m.link( raft::kernel::make<raft::generate<double>>(
                4, []( std::size_t i )
                { return static_cast<double>( i ); } ),
            raft::kernel::make<raft::write_each<int>>(
                std::back_inserter( out ) ) );
    raft::run_options o;
    o.analysis.warnings_as_errors = true;
    EXPECT_THROW( m.exe( o ), raft::analysis_error );
}

/** @name map::link()/exe() error paths — exact diagnostic text */
///@{
TEST( analysis, link_null_kernel_exact_text )
{
    raft::map m;
    try
    {
        m.link( nullptr, seq_source( 1 ) );
        FAIL() << "null kernel must be rejected";
    }
    catch( const raft::graph_exception &e )
    {
        EXPECT_STREQ( e.what(), "link() given a null kernel" );
    }
}

TEST( analysis, double_link_exact_text )
{
    raft::map m;
    auto *src = seq_source( 1 );
    m.link( src, raft::kernel::make<raft::print<i64>>() );
    try
    {
        /** name the port explicitly: the no-name overload would fail the
         *  unlinked-port resolution first with a different message */
        m.link( src, "0", raft::kernel::make<raft::print<i64>>(), "0" );
        FAIL() << "double link must be rejected";
    }
    catch( const raft::port_exception &e )
    {
        EXPECT_EQ( std::string( e.what() ),
                   "output port '0' of " + src->name() +
                       " already linked" );
    }
}

TEST( analysis, incompatible_types_keep_link_type_exception )
{
    struct payload
    {
        int x;
    };
    class payload_sink : public raft::kernel
    {
    public:
        payload_sink() { input.addPort<payload>( "0" ); }
        raft::kstatus run() override { return raft::stop; }
    };
    raft::map m;
    m.link( seq_source( 1 ), raft::kernel::make<payload_sink>() );
    /** the analyzer reports it... **/
    const auto rep = raft::analyze( m );
    ASSERT_NE( find_diag( rep, "incompatible-link-types" ), nullptr );
    /** ...but exe() still throws the detailed link_type_exception **/
    try
    {
        m.exe();
        FAIL() << "incompatible types must be rejected";
    }
    catch( const raft::link_type_exception &e )
    {
        EXPECT_NE( std::string( e.what() )
                       .find( "types differ and are not convertible" ),
                   std::string::npos );
    }
}
///@}

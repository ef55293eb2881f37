/**
 * Telemetry layer (runtime/telemetry/): the lock-free tracer (ring
 * overflow + drop accounting, Chrome trace_event JSON shape), the metrics
 * registry (concurrent wait-free updates — the TSan target — ownership
 * scoping, Prometheus text exposition), the HTTP exporter round-trip
 * (scrape → parse → match against live registry state), and the
 * end-to-end acceptance runs: a live scrape during map::exe() and a
 * fault-injected elastic run whose exported trace shows the supervisor
 * restart and the replica activations. The run_report suite checks the
 * one report that exe() returns through stats_out and its sections.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <raft.hpp>

namespace {

using i64 = std::int64_t;
using namespace std::chrono_literals;
namespace tele = raft::telemetry;

raft::generate<i64> *seq_source( const std::size_t n )
{
    return raft::kernel::make<raft::generate<i64>>(
        n, []( std::size_t i ) { return static_cast<i64>( i ); } );
}

/** Minimal recursive-descent JSON validator: enough to reject anything
 *  chrome://tracing or python's json module would reject (unbalanced
 *  structure, bad literals, trailing garbage). Values are not retained. */
class json_checker
{
public:
    static bool valid( const std::string &text )
    {
        json_checker c( text );
        c.skip_ws();
        if( !c.value() )
        {
            return false;
        }
        c.skip_ws();
        return c.pos_ == c.s_.size();
    }

private:
    explicit json_checker( const std::string &s ) : s_( s ) {}

    void skip_ws()
    {
        while( pos_ < s_.size() &&
               ( s_[ pos_ ] == ' ' || s_[ pos_ ] == '\t' ||
                 s_[ pos_ ] == '\n' || s_[ pos_ ] == '\r' ) )
        {
            ++pos_;
        }
    }

    bool literal( const char *lit )
    {
        const auto n = std::strlen( lit );
        if( s_.compare( pos_, n, lit ) != 0 )
        {
            return false;
        }
        pos_ += n;
        return true;
    }

    bool string()
    {
        if( pos_ >= s_.size() || s_[ pos_ ] != '"' )
        {
            return false;
        }
        ++pos_;
        while( pos_ < s_.size() && s_[ pos_ ] != '"' )
        {
            if( s_[ pos_ ] == '\\' )
            {
                ++pos_; /** skip the escaped char **/
            }
            ++pos_;
        }
        if( pos_ >= s_.size() )
        {
            return false;
        }
        ++pos_; /** closing quote **/
        return true;
    }

    bool number()
    {
        const auto start = pos_;
        if( pos_ < s_.size() && s_[ pos_ ] == '-' )
        {
            ++pos_;
        }
        while( pos_ < s_.size() &&
               ( std::isdigit( static_cast<unsigned char>( s_[ pos_ ] ) ) ||
                 s_[ pos_ ] == '.' || s_[ pos_ ] == 'e' ||
                 s_[ pos_ ] == 'E' || s_[ pos_ ] == '+' ||
                 s_[ pos_ ] == '-' ) )
        {
            ++pos_;
        }
        return pos_ > start;
    }

    bool value()
    {
        skip_ws();
        if( pos_ >= s_.size() )
        {
            return false;
        }
        switch( s_[ pos_ ] )
        {
            case '{':
                return object();
            case '[':
                return array();
            case '"':
                return string();
            case 't':
                return literal( "true" );
            case 'f':
                return literal( "false" );
            case 'n':
                return literal( "null" );
            default:
                return number();
        }
    }

    bool object()
    {
        ++pos_; /** '{' **/
        skip_ws();
        if( pos_ < s_.size() && s_[ pos_ ] == '}' )
        {
            ++pos_;
            return true;
        }
        for( ;; )
        {
            skip_ws();
            if( !string() )
            {
                return false;
            }
            skip_ws();
            if( pos_ >= s_.size() || s_[ pos_ ] != ':' )
            {
                return false;
            }
            ++pos_;
            if( !value() )
            {
                return false;
            }
            skip_ws();
            if( pos_ >= s_.size() )
            {
                return false;
            }
            if( s_[ pos_ ] == ',' )
            {
                ++pos_;
                continue;
            }
            if( s_[ pos_ ] == '}' )
            {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool array()
    {
        ++pos_; /** '[' **/
        skip_ws();
        if( pos_ < s_.size() && s_[ pos_ ] == ']' )
        {
            ++pos_;
            return true;
        }
        for( ;; )
        {
            if( !value() )
            {
                return false;
            }
            skip_ws();
            if( pos_ >= s_.size() )
            {
                return false;
            }
            if( s_[ pos_ ] == ',' )
            {
                ++pos_;
                continue;
            }
            if( s_[ pos_ ] == ']' )
            {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string &s_;
    std::size_t pos_{ 0 };
};

/** Pull one sample's value out of exposition text: the line starting with
 *  `series` (full name incl. any {labels} prefix match). NaN when absent. */
double scrape_value( const std::string &body, const std::string &series )
{
    std::istringstream is( body );
    std::string line;
    while( std::getline( is, line ) )
    {
        if( line.rfind( series, 0 ) != 0 || line.empty() ||
            line[ 0 ] == '#' )
        {
            continue;
        }
        const auto sp = line.rfind( ' ' );
        if( sp == std::string::npos )
        {
            continue;
        }
        return std::stod( line.substr( sp + 1 ) );
    }
    return std::numeric_limits<double>::quiet_NaN();
}

/** Clonable relay with a fixed per-element service time (elastic load).
 *  `on_first_run` fires once from the scheduler thread — its execution
 *  happens-after everything map::exe() did before spawning kernels (the
 *  telemetry session constructor included), so the callback can read
 *  plain state the session wrote, e.g. bound_port_out. */
class sleepy_worker : public raft::kernel
{
public:
    explicit sleepy_worker( const std::chrono::microseconds delay,
                            std::function<void()> on_first_run = {} )
        : delay_( delay ), first_( std::move( on_first_run ) )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
        set_name( "sleepy" );
    }
    raft::kstatus run() override
    {
        if( first_ )
        {
            first_();
            first_ = nullptr;
        }
        auto v = input[ "0" ].pop_s<i64>();
        std::this_thread::sleep_for( delay_ );
        auto out = output[ "0" ].allocate_s<i64>();
        ( *out ) = *v;
        return raft::proceed;
    }
    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override
    {
        return new sleepy_worker( delay_ );
    }

private:
    std::chrono::microseconds delay_;
    std::function<void()> first_;
};

/** Relay whose first `failures` run() calls throw before any queue op. */
class flaky_relay : public raft::kernel
{
public:
    explicit flaky_relay( const std::size_t failures )
        : kernel(), fails_left_( failures )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
        set_name( "flaky" );
    }
    raft::kstatus run() override
    {
        if( fails_left_ > 0 )
        {
            --fails_left_;
            throw std::runtime_error( "flaky: transient failure" );
        }
        i64 v = 0;
        input[ "0" ].pop( v );
        output[ "0" ].push( v );
        return raft::proceed;
    }

private:
    std::size_t fails_left_;
};

} /** end anonymous namespace **/

/* ------------------------------------------------------------------ */
/* tracer                                                               */
/* ------------------------------------------------------------------ */

TEST( telemetry_trace, disabled_sites_record_nothing )
{
    ASSERT_FALSE( tele::tracing() );
    const auto before = tele::trace_counters();
    const auto id     = tele::intern( "noop" );
    tele::span( id, tele::cat::kernel, 0, 100 );
    tele::instant( id, tele::cat::kernel );
    const auto after = tele::trace_counters();
    EXPECT_EQ( after.recorded, before.recorded );
    EXPECT_EQ( after.dropped, before.dropped );
}

TEST( telemetry_trace, ring_overflow_drops_and_counts )
{
    tele::trace_enable( 64 ); /** rounded to 64 slots per thread **/
    const auto id = tele::intern( "spam" );
    constexpr std::uint64_t total = 1000;
    for( std::uint64_t i = 0; i < total; ++i )
    {
        tele::instant( id, tele::cat::kernel, i );
    }
    const auto s = tele::trace_counters();
    EXPECT_EQ( s.recorded + s.dropped, total );
    EXPECT_EQ( s.recorded, 64u ); /** exactly one full ring **/
    EXPECT_EQ( s.dropped, total - 64u );
    EXPECT_GE( s.threads, 1u );
    tele::trace_disable();
    EXPECT_FALSE( tele::tracing() );
}

TEST( telemetry_trace, interning_is_stable )
{
    const auto a = tele::intern( "alpha" );
    const auto b = tele::intern( "beta" );
    EXPECT_NE( a, 0u );
    EXPECT_NE( b, 0u );
    EXPECT_NE( a, b );
    EXPECT_EQ( tele::intern( "alpha" ), a );
}

TEST( telemetry_trace, chrome_json_shape_and_validity )
{
    tele::trace_enable( 256 );
    tele::name_thread( "test \"main\"" ); /** quote needs escaping **/
    const auto id = tele::intern( "work span" );
    tele::span( id, tele::cat::kernel, 1000, 51000, 7 );
    tele::instant_str( "marker", tele::cat::supervisor, 3 );
    const auto json = tele::trace_to_json();
    tele::trace_disable();

    EXPECT_TRUE( json_checker::valid( json ) ) << json;
    EXPECT_NE( json.find( "\"traceEvents\"" ), std::string::npos );
    EXPECT_NE( json.find( "\"ph\": \"X\"" ), std::string::npos );
    EXPECT_NE( json.find( "\"ph\": \"i\"" ), std::string::npos );
    EXPECT_NE( json.find( "\"work span\"" ), std::string::npos );
    EXPECT_NE( json.find( "\"marker\"" ), std::string::npos );
    /** span duration: 50 µs **/
    EXPECT_NE( json.find( "\"dur\": 50.000" ), std::string::npos );
    /** thread-name metadata with the quote escaped **/
    EXPECT_NE( json.find( "thread_name" ), std::string::npos );
    EXPECT_NE( json.find( "test \\\"main\\\"" ), std::string::npos );
}

TEST( telemetry_trace, multithreaded_rings_are_independent )
{
    tele::trace_enable( 1024 );
    const auto id = tele::intern( "mt" );
    constexpr int threads  = 4;
    constexpr int per_thread = 500;
    std::vector<std::thread> pool;
    for( int t = 0; t < threads; ++t )
    {
        pool.emplace_back( [ & ]() {
            tele::name_thread( "worker" );
            for( int i = 0; i < per_thread; ++i )
            {
                tele::instant( id, tele::cat::stream );
            }
        } );
    }
    for( auto &th : pool )
    {
        th.join();
    }
    const auto s = tele::trace_counters();
    EXPECT_EQ( s.recorded, static_cast<std::uint64_t>( threads ) *
                               per_thread );
    EXPECT_EQ( s.dropped, 0u );
    EXPECT_GE( s.threads, static_cast<std::uint64_t>( threads ) );
    const auto json = tele::trace_to_json();
    tele::trace_disable();
    EXPECT_TRUE( json_checker::valid( json ) );
}

/* ------------------------------------------------------------------ */
/* metrics registry                                                     */
/* ------------------------------------------------------------------ */

TEST( telemetry_metrics, counter_gauge_histogram_concurrent_updates )
{
    auto &reg   = tele::registry::instance();
    const auto owner = reg.make_owner();
    auto &c = reg.get_counter( "test_conc_total", {}, "", owner );
    auto &g = reg.get_gauge( "test_conc_gauge", {}, "", owner );
    auto &h = reg.get_histogram( "test_conc_hist",
                                 { 10, 100, 1000 }, 1.0, {}, "", owner );
    constexpr int threads = 4;
    constexpr std::uint64_t per_thread = 50000;
    std::vector<std::thread> pool;
    for( int t = 0; t < threads; ++t )
    {
        pool.emplace_back( [ & ]() {
            for( std::uint64_t i = 0; i < per_thread; ++i )
            {
                c.add();
                g.set( static_cast<double>( i ) );
                h.observe( i % 2000 );
            }
        } );
    }
    for( auto &th : pool )
    {
        th.join();
    }
    EXPECT_EQ( c.value(), threads * per_thread );
    EXPECT_EQ( h.count(), threads * per_thread );
    EXPECT_LT( g.value(), static_cast<double>( per_thread ) );
    reg.release( owner );
}

TEST( telemetry_metrics, get_or_create_is_keyed_by_name_and_labels )
{
    auto &reg   = tele::registry::instance();
    const auto owner = reg.make_owner();
    auto &a = reg.get_counter( "test_keyed", { { "k", "1" } }, "", owner );
    auto &b = reg.get_counter( "test_keyed", { { "k", "2" } }, "", owner );
    auto &c = reg.get_counter( "test_keyed", { { "k", "1" } }, "", owner );
    EXPECT_NE( &a, &b );
    EXPECT_EQ( &a, &c );
    reg.release( owner );
}

TEST( telemetry_metrics, owner_release_removes_series )
{
    auto &reg        = tele::registry::instance();
    const auto before = reg.size();
    const auto owner = reg.make_owner();
    reg.get_counter( "test_scoped_a", {}, "", owner );
    reg.get_gauge( "test_scoped_b", {}, "", owner );
    reg.add_callback_gauge( "test_scoped_c", {}, []() { return 1.0; },
                            "", owner );
    EXPECT_EQ( reg.size(), before + 3 );
    reg.release( owner );
    EXPECT_EQ( reg.size(), before );
}

TEST( telemetry_metrics, prometheus_exposition_shape )
{
    auto &reg   = tele::registry::instance();
    const auto owner = reg.make_owner();
    auto &c = reg.get_counter( "test_expo_total", { { "path", "a\"b\\c" } },
                               "counts things", owner );
    c.add( 42 );
    auto &g = reg.get_gauge( "test_expo_gauge", {}, "a gauge", owner );
    g.set( 2.5 );
    /** ns-bounds histogram exported in seconds **/
    auto &h = reg.get_histogram( "test_expo_seconds",
                                 { 1000, 1000000 }, 1e-9, {}, "", owner );
    h.observe( 500 );      /** le 1e-6  **/
    h.observe( 500000 );   /** le 1e-3  **/
    h.observe( 2000000 );  /** +Inf     **/
    const auto body = reg.render_prometheus();
    reg.release( owner );

    EXPECT_NE( body.find( "# HELP test_expo_total counts things" ),
               std::string::npos );
    EXPECT_NE( body.find( "# TYPE test_expo_total counter" ),
               std::string::npos );
    /** label escaping: " -> \" and \ -> \\ **/
    EXPECT_NE( body.find( "test_expo_total{path=\"a\\\"b\\\\c\"} 42" ),
               std::string::npos );
    EXPECT_NE( body.find( "# TYPE test_expo_gauge gauge" ),
               std::string::npos );
    EXPECT_NE( body.find( "test_expo_gauge 2.5" ), std::string::npos );
    EXPECT_NE( body.find( "# TYPE test_expo_seconds histogram" ),
               std::string::npos );
    /** cumulative buckets **/
    EXPECT_NE( body.find( "test_expo_seconds_bucket{le=\"1e-06\"} 1" ),
               std::string::npos );
    EXPECT_NE( body.find( "test_expo_seconds_bucket{le=\"0.001\"} 2" ),
               std::string::npos );
    EXPECT_NE( body.find( "test_expo_seconds_bucket{le=\"+Inf\"} 3" ),
               std::string::npos );
    EXPECT_NE( body.find( "test_expo_seconds_count 3" ),
               std::string::npos );
}

/* ------------------------------------------------------------------ */
/* exporter round-trip                                                  */
/* ------------------------------------------------------------------ */

TEST( telemetry_exporter, scrape_round_trip_matches_registry )
{
    auto &reg   = tele::registry::instance();
    const auto owner = reg.make_owner();
    auto &c = reg.get_counter( "test_rt_total", {}, "", owner );
    c.add( 123 );
    std::atomic<double> live{ 7.0 };
    reg.add_callback_gauge( "test_rt_live", {},
                            [ & ]() { return live.load(); }, "", owner );

    tele::prometheus_endpoint ep( 0 );
    ASSERT_NE( ep.port(), 0 );
    const auto body1 = tele::scrape_prometheus( "127.0.0.1", ep.port() );
    EXPECT_DOUBLE_EQ( scrape_value( body1, "test_rt_total" ), 123.0 );
    EXPECT_DOUBLE_EQ( scrape_value( body1, "test_rt_live" ), 7.0 );

    /** a second scrape sees updated state (fresh render per request) **/
    c.add( 1 );
    live.store( 9.5 );
    const auto body2 = tele::scrape_prometheus( "127.0.0.1", ep.port() );
    EXPECT_DOUBLE_EQ( scrape_value( body2, "test_rt_total" ), 124.0 );
    EXPECT_DOUBLE_EQ( scrape_value( body2, "test_rt_live" ), 9.5 );
    EXPECT_GE( ep.scrapes(), 2u );
    ep.stop();
    reg.release( owner );
}

/* ------------------------------------------------------------------ */
/* perf_snapshot satellites                                             */
/* ------------------------------------------------------------------ */

TEST( telemetry_snapshot, histogram_quantiles )
{
    raft::runtime::occupancy_histogram h;
    for( int i = 0; i < 90; ++i )
    {
        h.add( 0.05 ); /** bucket 0: [0, 0.1) **/
    }
    for( int i = 0; i < 10; ++i )
    {
        h.add( 0.95 ); /** bucket 9 **/
    }
    EXPECT_DOUBLE_EQ( h.p50(), 0.1 );  /** upper edge of bucket 0 **/
    EXPECT_DOUBLE_EQ( h.p95(), 1.0 );  /** upper edge of bucket 9 **/
    EXPECT_DOUBLE_EQ( h.p99(), 1.0 );
    raft::runtime::occupancy_histogram empty;
    EXPECT_DOUBLE_EQ( empty.p50(), 0.0 );
}

TEST( telemetry_snapshot, to_json_and_stream_operator )
{
    const std::size_t count = 20000;
    std::vector<i64> out;
    raft::runtime::perf_snapshot snap;
    raft::map m;
    auto kp = m.link( seq_source( count ),
                      raft::kernel::make<sleepy_worker>( 0us ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.stats_out = &snap;
    m.exe( o );
    ASSERT_FALSE( snap.streams.empty() );

    const auto json = snap.to_json();
    EXPECT_TRUE( json_checker::valid( json ) ) << json;
    EXPECT_NE( json.find( "\"wall_seconds\"" ), std::string::npos );
    EXPECT_NE( json.find( "\"streams\"" ), std::string::npos );
    EXPECT_NE( json.find( "\"p95_utilization\"" ), std::string::npos );
    EXPECT_NE( json.find( "\"occupancy_histogram\"" ), std::string::npos );

    std::ostringstream os;
    os << snap;
    EXPECT_NE( os.str().find( "perf_snapshot" ), std::string::npos );
    EXPECT_NE( os.str().find( "->" ), std::string::npos );
}

/* ------------------------------------------------------------------ */
/* end-to-end: live scrape during exe()                                 */
/* ------------------------------------------------------------------ */

TEST( telemetry_e2e, live_scrape_during_run_sees_kernel_and_stream_series )
{
    const std::size_t count = 40000;
    std::vector<i64> out;
    std::atomic<std::uint16_t> port{ 0 };
    std::uint16_t bound = 0;
    raft::runtime::perf_snapshot snap;

    std::string body;
    std::thread scraper( [ & ]() {
        while( port.load() == 0 )
        {
            std::this_thread::sleep_for( 200us );
        }
        /** scrape mid-run until per-kernel series turn nonzero (the
         *  graph is large enough that we always catch it live) **/
        for( int i = 0; i < 400; ++i )
        {
            try
            {
                const auto b = tele::scrape_prometheus( "127.0.0.1",
                                                        port.load() );
                body = b;
                if( scrape_value( b, "raft_kernel_runs_total" ) > 0.0 )
                {
                    return;
                }
            }
            catch( const raft::net_exception & )
            {
                /** endpoint gone: exe() finished, keep what we have **/
                return;
            }
            std::this_thread::sleep_for( 500us );
        }
    } );

    raft::map m;
    /** the session writes bound_port_out in its constructor, before any
     *  kernel runs — the worker's first run() publishes it **/
    auto kp = m.link(
        seq_source( count ),
        raft::kernel::make<sleepy_worker>(
            5us, [ & ]() { port.store( bound ); } ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.telemetry.enabled          = true;
    o.telemetry.serve_prometheus = true;
    o.telemetry.bound_port_out   = &bound;
    o.stats_out                  = &snap;
    m.exe( o );
    scraper.join();

    EXPECT_EQ( out.size(), count );
    ASSERT_TRUE( snap.telemetry );
    const auto &report = *snap.telemetry;
    EXPECT_GT( report.trace_events_recorded, 0u );
    ASSERT_FALSE( body.empty() );
    /** per-kernel service accounting and per-stream occupancy series
     *  were live while the graph ran **/
    EXPECT_GT( scrape_value( body, "raft_kernel_runs_total" ), 0.0 );
    EXPECT_NE( body.find( "raft_kernel_service_rate_hz" ),
               std::string::npos );
    EXPECT_NE( body.find( "raft_stream_occupancy" ), std::string::npos );
    EXPECT_NE( body.find( "raft_stream_capacity" ), std::string::npos );
    EXPECT_FALSE( std::isnan(
        scrape_value( body, "raft_monitor_ticks_total" ) ) );

    /** the registry is clean again: session-scoped series are gone **/
    const auto after = tele::registry::instance().render_prometheus();
    EXPECT_EQ( after.find( "raft_kernel_service_rate_hz" ),
               std::string::npos );
    EXPECT_FALSE( tele::tracing() );
    EXPECT_FALSE( tele::metrics_on() );
}

/* ------------------------------------------------------------------ */
/* end-to-end: fault-injected elastic run emits the full trace          */
/* ------------------------------------------------------------------ */

TEST( telemetry_e2e, fault_injected_elastic_trace_has_restart_and_activation )
{
    const std::string trace_path = "telemetry_e2e_trace.json";
    const std::size_t count      = 1500;
    std::vector<i64> out;
    raft::runtime::perf_snapshot snap;

    raft::map m;
    auto *flaky = raft::kernel::make<flaky_relay>( 2 );
    flaky->set_restart_policy( raft::restart_policy::up_to( 5 ) );
    /** unordered links so the slow middle kernel is split-eligible **/
    auto kp  = m.link<raft::out>( seq_source( count ),
                                  raft::kernel::make<sleepy_worker>(
                                      300us ) );
    auto kp2 = m.link<raft::out>( &kp.dst, flaky );
    m.link<raft::out>( &kp2.dst,
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );

    raft::run_options o;
    o.enable_auto_parallel     = true;
    o.elastic.enabled          = true;
    o.elastic.min_replicas     = 1;
    o.elastic.max_replicas     = 4;
    o.elastic.control_period   = 2ms;
    o.elastic.hysteresis       = 2;
    o.supervision.enabled      = true;
    o.telemetry.enabled        = true;
    o.telemetry.trace_out      = trace_path;
    o.stats_out                = &snap;
    m.exe( o );

    EXPECT_EQ( out.size(), count );
    ASSERT_TRUE( snap.telemetry );
    const auto &report = *snap.telemetry;
    EXPECT_GT( report.trace_events_recorded, 0u );

    std::ifstream f( trace_path );
    ASSERT_TRUE( f.good() );
    std::stringstream ss;
    ss << f.rdbuf();
    const auto json = ss.str();
    std::remove( trace_path.c_str() );

    EXPECT_TRUE( json_checker::valid( json ) );
    /** supervisor restart of the flaky kernel **/
    EXPECT_NE( json.find( "restart flaky" ), std::string::npos );
    /** elastic controller activated replica lanes under load **/
    EXPECT_NE( json.find( "replica_activate" ), std::string::npos );
    /** kernel lifecycle spans made it out too **/
    EXPECT_NE( json.find( "\"ph\": \"X\"" ), std::string::npos );
}

/* ------------------------------------------------------------------ */
/* the run report: one perf_snapshot through stats_out                  */
/* ------------------------------------------------------------------ */

TEST( run_report, every_enabled_subsystem_fills_its_section )
{
    const std::size_t count = 1500;
    std::vector<i64> out;
    raft::runtime::perf_snapshot snap;

    raft::map m;
    auto *flaky = raft::kernel::make<flaky_relay>( 2 );
    flaky->set_restart_policy( raft::restart_policy::up_to( 5 ) );
    auto kp  = m.link<raft::out>( seq_source( count ),
                                  raft::kernel::make<sleepy_worker>(
                                      300us ) );
    auto kp2 = m.link<raft::out>( &kp.dst, flaky );
    m.link<raft::out>( &kp2.dst,
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );

    raft::run_options o;
    o.elastic.enabled        = true;
    o.elastic.max_replicas   = 4;
    o.elastic.control_period = 2ms;
    o.elastic.hysteresis     = 2;
    o.supervision.enabled    = true;
    o.telemetry.enabled      = true;
    o.stats_out              = &snap;
    m.exe( o );

    EXPECT_EQ( out.size(), count );
    EXPECT_FALSE( snap.streams.empty() );
    /** only the sleepy worker is clonable: one replica group **/
    ASSERT_TRUE( snap.elastic );
    ASSERT_EQ( snap.elastic->groups.size(), 1u );
    EXPECT_NE( snap.elastic->find( "sleepy" ), nullptr );
    EXPECT_EQ( snap.elastic->groups[ 0 ].max_active, 4u );
    EXPECT_GT( snap.elastic->control_ticks, 0u );
    /** two transient throws, each restarted in place **/
    ASSERT_TRUE( snap.supervision );
    const auto *k = snap.supervision->find( "flaky" );
    ASSERT_NE( k, nullptr );
    EXPECT_EQ( k->restarts, 2u );
    EXPECT_FALSE( k->terminal );
    EXPECT_EQ( snap.supervision->total_restarts, 2u );
    EXPECT_EQ( snap.supervision->terminal_failures, 0u );
    ASSERT_TRUE( snap.telemetry );
    EXPECT_GT( snap.telemetry->trace_events_recorded, 0u );

    const auto json = snap.to_json();
    EXPECT_TRUE( json_checker::valid( json ) ) << json;
    for( const char *key : { "\"elastic\":", "\"supervision\":",
                             "\"telemetry\":", "\"streams\":" } )
    {
        EXPECT_NE( json.find( key ), std::string::npos ) << key;
    }
    std::ostringstream os;
    os << snap;
    for( const char *line : { "\nelastic: ", "\nsupervision: 2 restarts",
                              "\ntelemetry: " } )
    {
        EXPECT_NE( os.str().find( line ), std::string::npos ) << os.str();
    }
}

TEST( run_report, plain_run_leaves_every_section_empty )
{
    const std::size_t count = 5000;
    std::vector<i64> out;
    raft::runtime::perf_snapshot snap;
    /** a report reused from an earlier run loses its old sections **/
    snap.elastic     = raft::runtime::elastic_report{};
    snap.supervision = raft::runtime::supervision_report{};
    snap.telemetry   = raft::runtime::trace_report{};

    raft::map m;
    auto kp = m.link( seq_source( count ),
                      raft::kernel::make<sleepy_worker>( 0us ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.stats_out = &snap;
    m.exe( o );

    EXPECT_EQ( out.size(), count );
    EXPECT_EQ( snap.streams.size(), 2u );
    EXPECT_FALSE( snap.elastic );
    EXPECT_FALSE( snap.supervision );
    EXPECT_FALSE( snap.telemetry );
}

TEST( run_report, to_json_names_each_present_section_and_no_absent_one )
{
    const char *const keys[] = { "\"elastic\":", "\"supervision\":",
                                 "\"telemetry\":" };
    for( unsigned mask = 0; mask < 8; ++mask )
    {
        raft::runtime::perf_snapshot snap;
        raft::runtime::stream_stats st;
        st.src_kernel = "src";
        st.dst_kernel = "dst";
        snap.streams.push_back( st );
        if( mask & 1u )
        {
            snap.elastic = raft::runtime::elastic_report{};
            raft::runtime::elastic_group_report g;
            g.kernel_name = "work\"er";
            snap.elastic->groups.push_back( g );
        }
        if( mask & 2u )
        {
            snap.supervision = raft::runtime::supervision_report{};
            snap.supervision->last_stall_diagnostics = "line 1\nline 2";
            raft::runtime::kernel_supervision_report k;
            k.kernel_name = "flaky";
            k.terminal    = true;
            k.last_error  = "bad \\ input";
            snap.supervision->kernels.push_back( k );
        }
        if( mask & 4u )
        {
            snap.telemetry = raft::runtime::trace_report{ 5, 1, 2 };
        }
        const auto json = snap.to_json();
        EXPECT_TRUE( json_checker::valid( json ) ) << json;
        for( unsigned i = 0; i < 3; ++i )
        {
            EXPECT_EQ( json.find( keys[ i ] ) != std::string::npos,
                       ( mask & ( 1u << i ) ) != 0 )
                << "mask " << mask << ": " << json;
        }
    }
}

TEST( run_report, graph_error_still_fills_supervision )
{
    std::vector<i64> out;
    raft::runtime::perf_snapshot snap;
    raft::map m;
    /** no restart policy: the first throw is terminal **/
    auto kp = m.link( seq_source( 1000 ),
                      raft::kernel::make<flaky_relay>( 1000000 ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.supervision.enabled = true;
    o.stats_out           = &snap;
    EXPECT_THROW( m.exe( o ), raft::graph_error );

    EXPECT_EQ( snap.streams.size(), 2u );
    ASSERT_TRUE( snap.supervision );
    const auto *k = snap.supervision->find( "flaky" );
    ASSERT_NE( k, nullptr );
    EXPECT_TRUE( k->terminal );
    EXPECT_EQ( k->restarts, 0u );
    EXPECT_EQ( snap.supervision->terminal_failures, 1u );
    EXPECT_FALSE( snap.elastic );
    EXPECT_FALSE( snap.telemetry );
}

TEST( telemetry_e2e, injected_fault_counter_and_trace_event )
{
    const auto before = tele::inject_faults_total().value();
    tele::trace_enable( 256 );
    tele::metrics_enable();
    raft::runtime::inject::enable( 7 );
    raft::runtime::inject::plan p;
    p.site  = "kernel.run";
    p.match = "flaky";
    p.after = 10;
    raft::runtime::inject::arm( p );

    std::vector<i64> out;
    raft::map m;
    auto *flaky = raft::kernel::make<flaky_relay>( 0 );
    flaky->set_restart_policy( raft::restart_policy::up_to( 2 ) );
    auto kp = m.link( seq_source( 20000 ), flaky );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.supervision.enabled = true; /** restart through the injection **/
    m.exe( o );
    raft::runtime::inject::disable();

    EXPECT_GE( tele::inject_faults_total().value(), before + 1 );
    const auto json = tele::trace_to_json();
    tele::metrics_disable();
    tele::trace_disable();
    EXPECT_NE( json.find( "injected_fault kernel.run" ),
               std::string::npos );
}

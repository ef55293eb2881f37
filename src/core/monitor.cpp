#include "core/monitor.hpp"

#include <algorithm>

#include "core/defs.hpp"
#include "runtime/elastic/elastic.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

namespace raft {

monitor::monitor( const run_options &opts ) : opts_( opts )
{
    delta_ns_ = std::max<std::int64_t>( 1, opts.monitor_delta.count() );
}

monitor::~monitor() { stop(); }

void monitor::register_stream( fifo_base *f, stream_info info )
{
    entry e;
    e.f                = f;
    e.info             = std::move( info );
    e.initial_capacity = f->capacity();
    entries_.push_back( std::move( e ) );
    f->set_auto_resize( opts_.dynamic_resize );
    f->set_doorbell( opts_.dynamic_resize ? &bell_ : nullptr );
}

void monitor::start()
{
    if( running_.exchange( true ) )
    {
        return;
    }
    if( !opts_.dynamic_resize && !samples_read() )
    {
        running_.store( false );
        return; /** nothing to do — zero overhead **/
    }
    thread_ = std::thread( [ this ]() { loop(); } );
}

void monitor::stop()
{
    if( !running_.exchange( false ) )
    {
        return;
    }
    bell_.ring();
    if( thread_.joinable() )
    {
        thread_.join();
    }
}

void monitor::loop()
{
    if( telemetry::tracing() )
    {
        telemetry::name_thread( "monitor" );
    }
    /** the elastic controller's windows need δ-resolution samples **/
    const bool every_delta = elastic_ != nullptr;
    /** unread samples need no idle tick: both resize rules ring the
     *  doorbell when they may fire, so sleep until then **/
    const auto idle_cap = std::max<std::int64_t>(
        delta_ns_, samples_read() ? idle_cap_ns : backstop_ns );
    /** idle deadlines advance by idle_cap from each other, not from the
     *  late wake-up, and a late tick is caught up at once: sleep
     *  overshoot does not lower the idle rate. An early wake-up (a ring)
     *  keeps the deadline, so no sleep exceeds idle_cap **/
    auto due = detail::now_ns();
    for( ;; )
    {
        /** arm before the running_ check and the scan: a ring from stop()
         *  or a queue after this point cuts the wait short **/
        bell_.arm();
        if( !running_.load( std::memory_order_seq_cst ) )
        {
            break;
        }
        if( tick() || every_delta )
        {
            bell_.disarm();
            std::this_thread::sleep_for(
                std::chrono::nanoseconds( delta_ns_ ) );
            continue;
        }
        const auto now = detail::now_ns();
        if( due <= now )
        {
            due += idle_cap;
            if( due < now - idle_cap )
            {
                due = now; /** a period or more behind: restart **/
            }
        }
        if( due > now )
        {
            bell_.wait_for( std::chrono::nanoseconds( due - now ) );
        }
        else
        {
            bell_.disarm();
        }
    }
    /** final sample so short runs still record statistics **/
    tick();
}

bool monitor::samples_read() const noexcept
{
    return opts_.stats_out != nullptr || elastic_ != nullptr ||
           supervisor_ != nullptr ||
           ( opts_.dynamic_resize && opts_.allow_shrink );
}

bool monitor::tick()
{
    const auto now = detail::now_ns();
    bool may_fire  = false;
    ticks_.fetch_add( 1, std::memory_order_relaxed );
    for( auto &e : entries_ )
    {
        fifo_base &f   = *e.f;
        const auto sz  = f.size();
        const auto cap = f.capacity();

        /** apply one capacity change and publish it to the telemetry
         *  layer — resizes are rare, so interning the composed event
         *  name here (cold path) is fine **/
        const auto apply_resize = [ &e, &f ]( const std::size_t new_cap )
        {
            if( !f.resize( new_cap ) )
            {
                return;
            }
            if( telemetry::metrics_on() )
            {
                telemetry::fifo_resizes_total().add();
            }
            if( telemetry::tracing() )
            {
                telemetry::instant_str( "fifo_resize " + e.info.src_kernel +
                                            "->" + e.info.dst_kernel,
                                        telemetry::cat::monitor, new_cap );
            }
        };

        e.sample.add( sz, cap );

        if( !opts_.dynamic_resize )
        {
            continue;
        }

        /**
         * Rule 1 (read side): the reader demanded a window larger than
         * capacity. Correctness-critical — "the program cannot continue"
         * otherwise — so it overrides max_queue_capacity.
         */
        const auto req = f.resize_request();
        if( req > cap )
        {
            apply_resize( req );
            may_fire = true;
            continue;
        }

        /**
         * Rule 2 (write side): writer blocked ≥ 3δ on a full queue — grow
         * geometrically up to the configured cap.
         */
        const auto wbs = f.write_blocked_since();
        may_fire =
            may_fire || ( wbs != 0 && cap < opts_.max_queue_capacity );
        if( wbs != 0 && now - wbs >= 3 * delta_ns_ &&
            cap < opts_.max_queue_capacity && f.space_avail() == 0 )
        {
            apply_resize( std::min( cap * 2, opts_.max_queue_capacity ) );
            e.low_util_streak = 0;
            continue;
        }

        /**
         * Shrink heuristic (optional): sustained low utilization returns
         * memory ("reallocates them as needed (either larger or smaller)",
         * §4.2). Hysteresis avoids grow/shrink oscillation.
         */
        if( opts_.allow_shrink && cap > e.initial_capacity &&
            sz <= cap / 8 )
        {
            if( ++e.low_util_streak >= opts_.shrink_hysteresis )
            {
                apply_resize( cap / 2 );
                e.low_util_streak = 0;
            }
        }
        else
        {
            e.low_util_streak = 0;
        }
    }

    if( elastic_ != nullptr )
    {
        elastic_->on_tick( now );
    }
    if( supervisor_ != nullptr )
    {
        supervisor_->on_tick( *this, now );
    }
    return may_fire;
}

void monitor::collect( runtime::perf_snapshot &out, const double wall ) const
{
    out               = runtime::perf_snapshot{};
    out.wall_seconds  = wall;
    out.monitor_ticks = ticks_.load( std::memory_order_relaxed );
    for( const auto &e : entries_ )
    {
        runtime::stream_stats s;
        s.src_kernel       = e.info.src_kernel;
        s.dst_kernel       = e.info.dst_kernel;
        s.src_port         = e.info.src_port;
        s.dst_port         = e.info.dst_port;
        s.type_name        = e.info.type_name;
        s.pushed           = e.f->total_pushed();
        s.popped           = e.f->total_popped();
        s.element_size     = e.f->element_size();
        s.initial_capacity = e.initial_capacity;
        s.final_capacity   = e.f->capacity();
        s.resize_count     = e.f->resize_count();
        const auto wp      = e.f->write_parks();
        const auto rp      = e.f->read_parks();
        s.write_park_barriers = wp.barriers;
        s.write_park_waits    = wp.waits;
        s.read_park_barriers  = rp.barriers;
        s.read_park_waits     = rp.waits;
        const auto &sm     = e.sample;
        s.samples          = sm.ticks;
        if( sm.ticks > 0 )
        {
            s.mean_occupancy =
                sm.occupancy_sum / static_cast<double>( sm.ticks );
            s.mean_utilization =
                sm.utilization_sum / static_cast<double>( sm.ticks );
        }
        s.occupancy = sm.hist;
        if( wall > 0.0 )
        {
            /** the whole run as one estimator window: the same corrected
             *  rates the elastic controller acts on **/
            elastic::rate_estimator run( 1.0 );
            run.window( sm, s.pushed, s.popped, wall );
            s.arrival_rate_hz = run.arrival_hz();
            s.service_rate_hz = elastic::non_blocking_service_hz(
                run.observed_pop_hz(), run.busy_fraction() );
            s.throughput_bytes_per_s =
                run.observed_pop_hz() * static_cast<double>( s.element_size );
        }
        out.streams.push_back( std::move( s ) );
    }
}

} /** end namespace raft **/

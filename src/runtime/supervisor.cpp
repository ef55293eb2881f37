#include "runtime/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/monitor.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

namespace raft::runtime {

supervisor::supervisor( const supervision_options &opts ) : opts_( opts ) {}

void supervisor::register_kernel( kernel *k )
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    kernel_state s;
    s.k = k;
    /** explicit per-kernel policy wins over the configured default **/
    const auto *p = k->restart();
    s.policy      = p != nullptr ? *p : opts_.default_restart;
    kernels_.push_back( std::move( s ) );
}

supervisor::kernel_state *supervisor::find_locked( const kernel &k )
{
    for( auto &s : kernels_ )
    {
        if( s.k == &k )
        {
            return &s;
        }
    }
    return nullptr;
}

supervisor::verdict supervisor::on_failure( kernel &k,
                                            const std::string &what )
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    auto *s = find_locked( k );
    if( s == nullptr )
    {
        /** unknown kernel (not registered): terminal, but still counted **/
        ++terminal_failures_;
        return verdict{};
    }
    ++s->failures;
    s->last_error = what;
    if( s->restarts < s->policy.max_restarts )
    {
        /** grant a restart: backoff = initial · multiplier^restarts,
         *  capped at max_backoff **/
        const auto n = s->restarts++;
        ++total_restarts_;
        if( telemetry::metrics_on() )
        {
            telemetry::supervisor_restarts_total().add();
        }
        if( telemetry::tracing() )
        {
            telemetry::instant_str( "restart " + k.name(),
                                    telemetry::cat::supervisor,
                                    s->restarts );
        }
        double ns = static_cast<double>( s->policy.initial_backoff.count() );
        for( std::size_t i = 0; i < n; ++i )
        {
            ns *= s->policy.backoff_multiplier;
            if( ns >= static_cast<double>( s->policy.max_backoff.count() ) )
            {
                break;
            }
        }
        ns = std::min(
            ns, static_cast<double>( s->policy.max_backoff.count() ) );
        verdict v;
        v.restart = true;
        v.backoff = std::chrono::nanoseconds(
            static_cast<std::int64_t>( std::max( 0.0, ns ) ) );
        return v;
    }
    s->terminal = true;
    ++terminal_failures_;
    return verdict{};
}

void supervisor::set_canceller(
    std::function<void( const std::string & )> c )
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    canceller_ = std::move( c );
}

void supervisor::clear_canceller()
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    canceller_ = nullptr;
}

std::string supervisor::stall_diagnostics_locked( const monitor &mon,
                                                  const std::int64_t now_ns )
{
    /** Per-stream occupancy + rate dump from the monitor's entries:
     *  enough to see which queue is full (blocked producer) and which is
     *  empty (starved consumer) when the graph wedged. Rates are averages
     *  since the watchdog's first tick. */
    const double window_s =
        static_cast<double>( now_ns - first_tick_ns_ ) * 1e-9;
    std::ostringstream os;
    for( const auto &e : mon.streams() )
    {
        const auto pushed = e.f->total_pushed();
        const auto popped = e.f->total_popped();
        os << "  " << e.info.src_kernel << " -> " << e.info.dst_kernel
           << ": occupancy " << e.f->size() << "/" << e.f->capacity()
           << ", pushed " << pushed << ", popped " << popped;
        if( window_s > 0.0 )
        {
            os << ", rate in " << static_cast<double>( pushed ) / window_s
               << "/s out " << static_cast<double>( popped ) / window_s
               << "/s";
        }
        os << "\n";
    }
    for( const auto &k : kernels_ )
    {
        if( k.failures != 0 )
        {
            os << "  kernel " << k.k->name() << ": " << k.failures
               << " failure(s), " << k.restarts << " restart(s)"
               << ( k.terminal ? " [terminal]" : "" ) << ": "
               << k.last_error << "\n";
        }
    }
    return os.str();
}

void supervisor::on_tick( const monitor &mon, const std::int64_t now_ns )
{
    if( opts_.watchdog_deadline.count() <= 0 )
    {
        return;
    }
    std::function<void( const std::string & )> cancel;
    std::string reason;
    {
        const std::lock_guard<std::mutex> lock( mutex_ );
        std::uint64_t progress = 0;
        for( const auto &e : mon.streams() )
        {
            progress += e.f->total_pushed() + e.f->total_popped();
        }
        if( last_progress_ns_ == 0 || progress != last_progress_ )
        {
            /** first tick, or the graph moved — rearm **/
            if( first_tick_ns_ == 0 )
            {
                first_tick_ns_ = now_ns;
            }
            last_progress_    = progress;
            last_progress_ns_ = now_ns;
            stall_flagged_    = false;
            return;
        }
        if( stall_flagged_ ||
            now_ns - last_progress_ns_ < opts_.watchdog_deadline.count() )
        {
            return;
        }
        /** deadline blown with zero progress: one stall per quiet period **/
        stall_flagged_ = true;
        ++watchdog_stalls_;
        if( telemetry::metrics_on() )
        {
            telemetry::watchdog_stalls_total().add();
        }
        if( telemetry::tracing() )
        {
            telemetry::instant_str( "watchdog_stall",
                                    telemetry::cat::supervisor );
        }
        last_stall_diagnostics_ = stall_diagnostics_locked( mon, now_ns );
        if( !canceller_ )
        {
            return;
        }
        cancel = canceller_;
        reason =
            "watchdog: no stream progress for " +
            std::to_string( ( now_ns - last_progress_ns_ ) / 1'000'000 ) +
            " ms\n" + last_stall_diagnostics_;
    }
    /** invoke outside the lock — the canceller pokes schedulers/streams **/
    cancel( reason );
}

supervision_report supervisor::report() const
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    supervision_report out;
    out.total_restarts         = total_restarts_;
    out.terminal_failures      = terminal_failures_;
    out.watchdog_stalls        = watchdog_stalls_;
    out.last_stall_diagnostics = last_stall_diagnostics_;
    for( const auto &s : kernels_ )
    {
        kernel_supervision_report k;
        k.kernel_name = s.k->name();
        k.restarts    = s.restarts;
        k.failures    = s.failures;
        k.terminal    = s.terminal;
        k.last_error  = s.last_error;
        out.kernels.push_back( std::move( k ) );
    }
    return out;
}

} /** end namespace raft::runtime **/

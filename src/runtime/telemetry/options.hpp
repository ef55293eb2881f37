/**
 * options.hpp - telemetry configuration embedded in raft::run_options
 * (runtime/telemetry/).  Pure data: core/options.hpp includes this, so
 * it must pull in nothing from core/.
 **/
#ifndef RAFT_RUNTIME_TELEMETRY_OPTIONS_HPP
#define RAFT_RUNTIME_TELEMETRY_OPTIONS_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace raft
{

/** run_options::telemetry — everything defaults OFF; with
 *  `enabled == false` no instrumentation site costs more than one
 *  relaxed atomic load (bench/ab_overhead's `telemetry_off` row is the
 *  noise floor of its `telemetry_metrics` row).  The tracer's
 *  accounting is the run report's `telemetry` section
 *  (run_options::stats_out). **/
struct telemetry_options
{
    /** master switch: metrics registry wiring + per-kernel service-time
     *  accounting + (with `trace`) the event tracer **/
    bool enabled{ false };

    /** record lifecycle/blocked/resize/restart events into per-thread
     *  rings for Chrome trace export **/
    bool trace{ true };

    /** tracer ring capacity in events per thread (rounded up to a power
     *  of two; 32 bytes per event) **/
    std::size_t trace_ring_capacity{ 16384 };

    /** write the Chrome trace_event JSON here at teardown ("" = don't);
     *  load the file in chrome://tracing or https://ui.perfetto.dev **/
    std::string trace_out{};

    /** serve Prometheus text exposition over src/net/socket for the
     *  duration of exe(); `prometheus_port == 0` binds an ephemeral
     *  loopback port **/
    bool serve_prometheus{ false };
    std::uint16_t prometheus_port{ 0 };

    /** written with the bound endpoint port before kernels start, so a
     *  scraper can attach to an ephemeral port mid-run **/
    std::uint16_t *bound_port_out{ nullptr };
};

} /** end namespace raft **/

#endif /** RAFT_RUNTIME_TELEMETRY_OPTIONS_HPP **/

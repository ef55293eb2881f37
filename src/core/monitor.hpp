/**
 * monitor.hpp — the dynamic queue monitor (§3/§4).
 *
 * "RaftLib deals with this by detecting this condition with a monitoring
 * thread, updated every δ ← 10 µs. When conditions dictate that the FIFO
 * needs to be resized, it is done using lock-free exclusion and only under
 * certain conditions... On the side writing to the queue, if the write
 * process is blocked for a time period of 3 × δ then the queue is resized.
 * On the read side, if the reading compute kernel requests more items than
 * the queue has available then the queue is tagged for resizing."
 *
 * The tick is the only place that probes streams (§4.1's low-overhead
 * statistics): per tick and stream, one size() and one capacity() load,
 * added to the stream's monotonic runtime::stream_sample. The resize rules
 * act on the same probe; the elastic controller (an attached hook, run at
 * the end of the tick on this thread) and collect() after the run read the
 * sample. The supervisor's watchdog, the other hook, walks the same
 * entries for its progress sum. Push/pop counters are read only by these
 * readers, never by the tick itself.
 *
 * Cadence: the thread ticks every δ only while a rule can fire — a
 * writer is blocked on a queue that may still grow, or a reader's resize
 * request is pending — or while an elastic controller is attached (its
 * control windows need δ-resolution samples). Otherwise it sleeps on its
 * doorbell. A registered queue rings the doorbell when its writer starts
 * to block or its reader posts a request, so the 3δ rule still measures
 * from the blocked-since stamp. How long an idle sleep may last depends
 * on whether anything reads the samples (collect() through stats_out,
 * the elastic controller, the supervisor's watchdog, the allow_shrink
 * streak): if so, max(δ, 1 ms), so idle streams are sampled at about
 * 1 kHz and the watchdog notices a stall within about a millisecond; if
 * not, the tick serves the resize rules alone, which ring the doorbell
 * when they may fire, and the sleep is capped only by a 100 ms backstop.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/defs.hpp"
#include "core/fifo.hpp"
#include "core/options.hpp"
#include "runtime/stats.hpp"

namespace raft {

namespace elastic {
class controller;
} /** end namespace elastic **/

namespace runtime {
class supervisor;
} /** end namespace runtime **/

class monitor
{
public:
    /** Static identity of one stream, captured at registration. */
    struct stream_info
    {
        std::string src_kernel;
        std::string dst_kernel;
        std::string src_port;
        std::string dst_port;
        std::string type_name;
    };

    /** One registered stream. The sample is written by tick() only. */
    struct entry
    {
        fifo_base *f{ nullptr };
        stream_info info;
        std::size_t initial_capacity{ 0 };
        runtime::stream_sample sample;
        std::size_t low_util_streak{ 0 };
    };

    explicit monitor( const run_options &opts );
    ~monitor();

    monitor( const monitor & )            = delete;
    monitor &operator=( const monitor & ) = delete;

    /** Register before start(); enables reader-overflow growth on f when
     *  dynamic resizing is configured, and then hands f this monitor's
     *  doorbell: the monitor must outlive every blocking operation on f. */
    void register_stream( fifo_base *f, stream_info info );

    /** Registered streams; read samples from an attached hook or after
     *  stop(). */
    const std::vector<entry> &streams() const noexcept { return entries_; }

    /** Attach the elastic controller (runtime/elastic/) before start();
     *  its on_tick() runs at the end of every monitor tick, on the monitor
     *  thread, so elastic actuation never races the monitor's resizes; the
     *  thread then ticks every δ. The controller must outlive the
     *  monitor's running thread (declare it first / stop() the monitor
     *  before destroying it). */
    void attach_elastic( elastic::controller *ctrl ) noexcept
    {
        elastic_ = ctrl;
    }

    /** Attach the supervisor's watchdog before start(); its on_tick()
     *  runs at the end of every monitor tick (same lifetime contract as
     *  the elastic controller). Like stats_out, it keeps idle streams
     *  sampled at about 1 kHz. */
    void attach_supervisor( runtime::supervisor *sup ) noexcept
    {
        supervisor_ = sup;
    }

    /** Start the thread only if something acts on or reads the samples:
     *  dynamic_resize, stats_out, or a hook. Without a sample reader it
     *  ticks only when a resize rule may fire (see the file header). */
    void start();
    void stop();

    /** Replace `out` with the run's stream statistics, no section set;
     *  call after stop(). `wall` is the measured execution time in
     *  seconds. */
    void collect( runtime::perf_snapshot &out, double wall ) const;

    std::uint64_t ticks() const noexcept
    {
        return ticks_.load( std::memory_order_relaxed );
    }

    /** One sampling pass over every stream (exposed for tests). Returns
     *  true when a resize rule may fire on the next tick. */
    bool tick();

private:
    void loop();
    /** Does anything read the samples (see the file header)? */
    bool samples_read() const noexcept;

    run_options opts_;
    std::vector<entry> entries_;
    std::thread thread_;
    std::atomic<bool> running_{ false };
    std::atomic<std::uint64_t> ticks_{ 0 };
    /** the longest idle sleep while samples are read: streams are
     *  sampled at about 1 kHz **/
    static constexpr std::int64_t idle_cap_ns = 1'000'000;
    /** the longest idle sleep while they are not: the doorbell wakes
     *  the monitor, so this only bounds the cost of a lost ring **/
    static constexpr std::int64_t backstop_ns = 100'000'000;
    std::int64_t delta_ns_{ 10'000 };
    /** rung by registered queues and by stop() **/
    detail::doorbell bell_;
    elastic::controller *elastic_{ nullptr };
    runtime::supervisor *supervisor_{ nullptr };
};

} /** end namespace raft **/

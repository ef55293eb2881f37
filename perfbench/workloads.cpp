#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

#include <algo/corpus.hpp>
#include <mapping/partition.hpp>
#include <raft.hpp>

namespace perfbench {

namespace {

using u64 = std::uint64_t;

u64 splitmix( u64 x )
{
    x += 0x9e3779b97f4a7c15ull;
    x = ( x ^ ( x >> 30 ) ) * 0xbf58476d1ce4e5b9ull;
    x = ( x ^ ( x >> 27 ) ) * 0x94d049bb133111ebull;
    return x ^ ( x >> 31 );
}

double seconds( const std::int64_t from, const std::int64_t to )
{
    return static_cast<double>( to - from ) / 1e9;
}

/** The probe slot a new kernel instance records into. */
template <class Trace> Trace *slot_for( kernel_probe *probe )
{
    if constexpr( Trace::on )
    {
        return &probe->add_slot();
    }
    else
    {
        (void) probe;
        return &no_trace::instance();
    }
}

/** Stream figures from run_options::stats_out. Stage replicas are named
 *  "stage<n>", so the stage's streams are found by that prefix. */
void fill_stream_stats( const raft::runtime::perf_snapshot &s,
                        trace_rep &tr )
{
    const auto starts = []( const std::string &k, const char *prefix ) {
        return k.rfind( prefix, 0 ) == 0;
    };
    tr.monitor_tick_hz =
        s.wall_seconds > 0
            ? static_cast<double>( s.monitor_ticks ) / s.wall_seconds
            : 0.0;
    std::vector<double> lanes;
    for( const auto &st : s.streams )
    {
        tr.fifo_resizes += static_cast<double>( st.resize_count );
        tr.fifo_capacity_bytes_final += static_cast<double>(
            st.final_capacity * st.element_size );
        if( starts( st.dst_kernel, "stage" ) )
        {
            tr.fifo_util_p95_stage_in =
                std::max( tr.fifo_util_p95_stage_in, st.p95_utilization() );
            lanes.push_back( static_cast<double>( st.popped ) );
        }
        if( starts( st.src_kernel, "stage" ) )
        {
            tr.fifo_util_p95_stage_out =
                std::max( tr.fifo_util_p95_stage_out, st.p95_utilization() );
        }
    }
    if( lanes.size() >= 2 )
    {
        double mean = 0;
        for( const auto l : lanes )
        {
            mean += l;
        }
        mean /= static_cast<double>( lanes.size() );
        double var = 0;
        for( const auto l : lanes )
        {
            var += ( l - mean ) * ( l - mean );
        }
        var /= static_cast<double>( lanes.size() );
        tr.lane_skew_cv = mean > 0 ? std::sqrt( var ) / mean : 0.0;
    }
}

/**
 * Execute an assembled graph. Traced reps first time standalone calls
 * into the analysis and mapping layers on the same graph, and collect the
 * monitor's statistics. Returns the exe() start time.
 */
template <class Trace>
std::int64_t execute( raft::map &m, raft::run_options opts,
                      const std::int64_t t_assembly, rep_result &r,
                      const kernel_probe &stage, const kernel_probe &sink )
{
    raft::runtime::perf_snapshot snap;
    if constexpr( Trace::on )
    {
        auto t = now_ns();
        r.trace.link_s = seconds( t_assembly, t );
        (void) raft::analyze( m, opts );
        r.trace.analyze_s = seconds( t, now_ns() );
        t = now_ns();
        const auto machine = raft::mapping::machine_desc::detect();
        r.trace.detect_s = seconds( t, now_ns() );
        t = now_ns();
        (void) raft::mapping::partition( m.graph(), machine );
        r.trace.partition_s = seconds( t, now_ns() );
        opts.stats_out = &snap;
    }
    const auto cpu0 = process_cpu_s();
    const auto t0   = now_ns();
    m.exe( opts );
    const auto t1 = now_ns();
    r.exe_s       = seconds( t0, t1 );
    r.cpu_cores   = ( process_cpu_s() - cpu0 ) / r.exe_s;
    if constexpr( Trace::on )
    {
        auto first = stage.first_contact();
        const auto s = sink.first_contact();
        if( first == 0 || ( s != 0 && s < first ) )
        {
            first = s;
        }
        r.trace.exe_prerun_s = first != 0 ? seconds( t0, first ) : 0.0;
        r.trace.stage        = stage.summarize();
        r.trace.sink         = sink.summarize();
        fill_stream_stats( snap, r.trace );
        r.trace.hop_wait_us = join_waits_us( stage.stamps(), sink.stamps() );
    }
    return t0;
}

/* ------------------------------------------------------------------ */
/* chain_scalar and paced_chain: source → one lambdak stage → sink     */
/* ------------------------------------------------------------------ */

/** 1 in this many elements is stamped at each kernel boundary. */
constexpr u64 chain_stamp_every = 64;

/** The chain stage: pop one u64, add the key, push it, all through named
 *  ports. */
template <class Trace>
auto chain_stage( const u64 base, const u64 key, Trace *tr )
{
    return [ base, key, tr ]( raft::Port &in, raft::Port &out ) {
        const auto t = tr->run_begin();
        u64 v        = 0;
        tr->pop( [ & ] { in[ "0" ].pop<u64>( v ); } );
        if constexpr( Trace::on )
        {
            if( stamped_id( v - base, chain_stamp_every ) )
            {
                tr->stamp( v - base );
            }
        }
        tr->push( [ & ] { out[ "0" ].push<u64>( v + key ); } );
        tr->run_end( t );
    };
}

template <class Trace> class chain_sink final : public raft::kernel
{
public:
    chain_sink( kernel_probe *probe, const u64 id_offset )
        : tr_( slot_for<Trace>( probe ) ), id_offset_( id_offset )
    {
        input.addPort<u64>( "0" );
        set_name( "sink" );
    }

    raft::kstatus run() override
    {
        const auto t = tr_->run_begin();
        u64 v        = 0;
        tr_->pop( [ & ] { input[ "0" ].pop<u64>( v ); } );
        if( first_ == 0 )
        {
            first_ = now_ns();
        }
        sum_ += v;
        ++count_;
        if constexpr( Trace::on )
        {
            if( stamped_id( v - id_offset_, chain_stamp_every ) )
            {
                tr_->stamp( v - id_offset_ );
            }
        }
        tr_->run_end( t );
        return raft::proceed;
    }

    std::int64_t first() const noexcept { return first_; }
    u64 sum() const noexcept { return sum_; }
    u64 count() const noexcept { return count_; }

private:
    Trace *tr_;
    u64 id_offset_;
    std::int64_t first_{ 0 };
    u64 sum_{ 0 };
    u64 count_{ 0 };
};

class chain_scalar final : public workload
{
public:
    /** ~0.15 s per rep on a 4-core host: many reps per run, so the
     *  run's median is steady. */
    static constexpr u64 items = 1u << 18;

    explicit chain_scalar( const u64 seed )
        : base_( splitmix( seed ) ), key_( splitmix( seed + 1 ) | 1 )
    {
    }

    rep_result run( const bool traced ) override
    {
        return traced ? rep<kernel_slot>() : rep<no_trace>();
    }

    const char *primary() const override { return "items_per_s"; }

private:
    template <class Trace> rep_result rep()
    {
        rep_result r;
        kernel_probe stage_p, sink_p;
        stamp_log created;
        std::function<u64( std::size_t )> gen = [ b = base_ ]( std::size_t i ) {
            return b + i;
        };
        if constexpr( Trace::on )
        {
            created.reserve( 2 * items / chain_stamp_every );
            gen = [ b = base_, c = &created ]( std::size_t i ) {
                if( stamped_id( i, chain_stamp_every ) )
                {
                    c->emplace_back( i, now_ns() );
                }
                return b + i;
            };
        }

        const auto t_assembly = now_ns();
        raft::map m;
        auto *stage = raft::kernel::make<raft::lambdak<u64>>(
            1, 1, chain_stage( base_, key_, slot_for<Trace>( &stage_p ) ) );
        stage->set_name( "stage0" );
        auto *sink =
            raft::kernel::make<chain_sink<Trace>>( &sink_p, base_ + key_ );
        auto p = m.link(
            raft::kernel::make<raft::generate<u64>>( items, gen ), stage );
        m.link( &( p.dst ), sink );
        const auto t0 =
            execute<Trace>( m, raft::run_options{}, t_assembly, r, stage_p,
                            sink_p );

        r.setup_s = seconds( t_assembly, sink->first() );
        r.items   = static_cast<double>( items );
        r.mib     = static_cast<double>( items * sizeof( u64 ) ) /
                ( 1024.0 * 1024.0 );
        /** closed form of Σ (base + i + key), i < items, mod 2^64 **/
        const u64 expect =
            items * ( base_ + key_ ) + items * ( items - 1 ) / 2;
        r.correct = sink->count() == items && sink->sum() == expect;
        if( !r.correct )
        {
            r.error = "chain checksum mismatch";
        }
        if constexpr( Trace::on )
        {
            /** item 0 is always stamped (its hash is 0): the source's
             *  first run() **/
            if( !created.empty() )
            {
                r.trace.exe_prerun_s = std::min(
                    r.trace.exe_prerun_s, seconds( t0, created.front().second ) );
            }
            r.trace.latency_us = join_waits_us( created, sink_p.stamps() );
        }
        return r;
    }

    u64 base_;
    u64 key_;
};

/** One paced element: its sequence number, a payload and its due time. */
struct paced_item
{
    u64 seq{ 0 };
    u64 value{ 0 };
    std::int64_t due_ns{ 0 };
};

/** Emits item i at start + i × period, stamped with that due time. The
 *  schedule does not slow when the pipeline does (open loop). */
class paced_source final : public raft::kernel
{
public:
    paced_source( const u64 n, const std::int64_t period_ns, const u64 base,
                  std::vector<float> *lag_us )
        : n_( n ), period_( period_ns ), base_( base ), lag_us_( lag_us )
    {
        output.addPort<paced_item>( "0" );
        set_name( "source" );
    }

    raft::kstatus run() override
    {
        if( i_ == n_ )
        {
            return raft::stop;
        }
        auto now = now_ns();
        if( start_ == 0 )
        {
            start_ = now;
        }
        const auto due = start_ + static_cast<std::int64_t>( i_ ) * period_;
        if( now < due )
        {
            std::this_thread::sleep_for( std::chrono::nanoseconds( due - now ) );
            now = now_ns();
        }
        ( *lag_us_ )[ i_ ] = static_cast<float>( now - due ) / 1e3f;
        output[ "0" ].push<paced_item>( paced_item{ i_, base_ + i_, due } );
        return ++i_ == n_ ? raft::stop : raft::proceed;
    }

private:
    u64 n_;
    std::int64_t period_;
    u64 base_;
    std::vector<float> *lag_us_;
    u64 i_{ 0 };
    std::int64_t start_{ 0 };
};

template <class Trace>
auto paced_stage( const u64 key, Trace *tr )
{
    return [ key, tr ]( raft::Port &in, raft::Port &out ) {
        const auto t = tr->run_begin();
        paced_item v;
        tr->pop( [ & ] { in[ "0" ].pop<paced_item>( v ); } );
        v.value += key;
        if constexpr( Trace::on )
        {
            if( stamped_id( v.seq, chain_stamp_every ) )
            {
                tr->stamp( v.seq );
            }
        }
        tr->push( [ & ] { out[ "0" ].push<paced_item>( v ); } );
        tr->run_end( t );
    };
}

/** Checks in-order, exactly-once delivery and records each item's
 *  latency from its due time. */
template <class Trace> class paced_sink final : public raft::kernel
{
public:
    paced_sink( kernel_probe *probe, const u64 value_offset,
                std::vector<float> *latency_us )
        : tr_( slot_for<Trace>( probe ) ), value_offset_( value_offset ),
          latency_us_( latency_us )
    {
        input.addPort<paced_item>( "0" );
        set_name( "sink" );
    }

    raft::kstatus run() override
    {
        const auto t = tr_->run_begin();
        paced_item v;
        tr_->pop( [ & ] { input[ "0" ].pop<paced_item>( v ); } );
        const auto now = now_ns();
        if( first_ == 0 )
        {
            first_ = now;
        }
        if( v.seq != next_ || v.value != value_offset_ + v.seq ||
            v.seq >= latency_us_->size() )
        {
            ++bad_;
        }
        else
        {
            ( *latency_us_ )[ v.seq ] =
                static_cast<float>( now - v.due_ns ) / 1e3f;
        }
        next_ = v.seq + 1;
        ++count_;
        if constexpr( Trace::on )
        {
            if( stamped_id( v.seq, chain_stamp_every ) )
            {
                tr_->stamp( v.seq );
            }
        }
        tr_->run_end( t );
        return raft::proceed;
    }

    std::int64_t first() const noexcept { return first_; }
    u64 count() const noexcept { return count_; }
    u64 bad() const noexcept { return bad_; }

private:
    Trace *tr_;
    u64 value_offset_;
    std::vector<float> *latency_us_;
    std::int64_t first_{ 0 };
    u64 next_{ 0 };
    u64 count_{ 0 };
    u64 bad_{ 0 };
};

class paced_chain final : public workload
{
public:
    /** At 2k items/s the stage and sink run out their spin and yield
     *  phases between items and sleep, so cpu_cores counts the CPU the
     *  runtime burns per idle gap rather than the CPU the host grants a
     *  spinning thread. */
    static constexpr u64 rate_hz = 2'000;
    static constexpr u64 items   = rate_hz; /**< 1 s per rep */
    /** On-time limit. A shared virtual host delays thread wake-ups, the
     *  source's own included, by up to about 10 ms, so a tighter limit
     *  grades the host; 20 ms still catches a stalled pipeline (a lost
     *  wake-up, a long sleep). */
    static constexpr double deadline_us = 20'000.0;

    explicit paced_chain( const u64 seed )
        : base_( splitmix( seed ) ), key_( splitmix( seed + 1 ) )
    {
    }

    rep_result run( const bool traced ) override
    {
        return traced ? rep<kernel_slot>() : rep<no_trace>();
    }

    const char *primary() const override { return "on_time_frac"; }

private:
    template <class Trace> rep_result rep()
    {
        rep_result r;
        kernel_probe stage_p, sink_p;
        /** a missing item keeps an infinite latency and so counts late **/
        std::vector<float> latency_us( items, INFINITY );
        std::vector<float> lag_us( items, 0.0f );

        const auto t_assembly = now_ns();
        raft::map m;
        auto *stage = raft::kernel::make<raft::lambdak<paced_item>>(
            1, 1, paced_stage( key_, slot_for<Trace>( &stage_p ) ) );
        stage->set_name( "stage0" );
        auto *sink = raft::kernel::make<paced_sink<Trace>>(
            &sink_p, base_ + key_, &latency_us );
        auto p = m.link( raft::kernel::make<paced_source>(
                             items, 1'000'000'000 / rate_hz, base_, &lag_us ),
                         stage );
        m.link( &( p.dst ), sink );
        execute<Trace>( m, raft::run_options{}, t_assembly, r, stage_p,
                        sink_p );

        r.setup_s = seconds( t_assembly, sink->first() );
        r.items   = static_cast<double>( items );
        r.mib     = static_cast<double>( items * sizeof( paced_item ) ) /
                ( 1024.0 * 1024.0 );
        r.correct = sink->count() == items && sink->bad() == 0;
        if( !r.correct )
        {
            r.error = "paced sequence broken: " +
                      std::to_string( sink->count() ) + " delivered, " +
                      std::to_string( sink->bad() ) + " out of order";
        }
        const auto on_time = std::count_if(
            latency_us.begin(), latency_us.end(),
            []( const float l ) { return l <= deadline_us; } );
        r.on_time_frac =
            static_cast<double>( on_time ) / static_cast<double>( items );
        r.gen_lag_p99_us = quantile(
            std::vector<double>( lag_us.begin(), lag_us.end() ), 0.99 );
        if constexpr( Trace::on )
        {
            r.trace.latency_us.assign( latency_us.begin(), latency_us.end() );
        }
        return r;
    }

    u64 base_;
    u64 key_;
};

/* ------------------------------------------------------------------ */
/* wordcount_pool: filereader → 2× tokenizer → counter, pool scheduler */
/* ------------------------------------------------------------------ */

constexpr std::size_t max_word_len = 24;

/** One word: up to max_word_len letters and the corpus offset where it
 *  starts. */
struct word_t
{
    std::array<char, max_word_len> text{};
    std::uint32_t offset{ 0 };
    std::uint8_t len{ 0 };
};
static_assert( sizeof( word_t ) == 32 );

constexpr u64 word_stamp_every = 16;

bool is_letter( const char c )
{
    return std::isalpha( static_cast<unsigned char>( c ) ) != 0;
}

u64 fnv1a( const char *p, const std::size_t n )
{
    u64 h = 0xcbf29ce484222325ull;
    for( std::size_t i = 0; i < n; ++i )
    {
        h = ( h ^ static_cast<unsigned char>( p[ i ] ) ) * 0x100000001b3ull;
    }
    return h;
}

/**
 * Splits zero-copy corpus segments into words. A word belongs to the
 * segment in whose body it starts. Each run() pops at most one segment and
 * pushes at most one word, the pool scheduler's kernel contract, so the
 * pool dispatches every word and a tokenizer never blocks a worker.
 */
template <class Trace> class tokenizer final : public raft::kernel
{
public:
    explicit tokenizer( kernel_probe *probe )
        : probe_( probe ), tr_( slot_for<Trace>( probe ) )
    {
        input.addPort<raft::mem_range>( "0" );
        output.addPort<word_t>( "0" );
        if constexpr( Trace::on )
        {
            set_name( "stage" + std::to_string( probe->slot_count() - 1 ) );
        }
    }

    raft::kstatus run() override
    {
        const auto t = tr_->run_begin();
        if( pos_ >= seg_.len )
        {
            tr_->pop( [ & ] { input[ "0" ].pop<raft::mem_range>( seg_ ); } );
            pos_ = 0;
        }
        word_t w;
        if( next_word( w ) )
        {
            if constexpr( Trace::on )
            {
                if( stamped_id( w.offset, word_stamp_every ) )
                {
                    tr_->stamp( w.offset );
                }
            }
            tr_->push( [ & ] { output[ "0" ].push<word_t>( w ); } );
        }
        tr_->run_end( t );
        return raft::proceed;
    }

    /** Holding part of a segment, only output space matters. */
    bool ready() const override
    {
        tr_->contact();
        return pos_ < seg_.len ? output[ "0" ].space_avail() > 0
                               : raft::kernel::ready();
    }

    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override
    {
        return new tokenizer<Trace>( probe_ );
    }

private:
    /** The next word this segment owns, from pos_ on; false (and the
     *  segment used up) when none is left. */
    bool next_word( word_t &w )
    {
        while( pos_ < seg_.len )
        {
            while( pos_ < seg_.len && !is_letter( seg_.data[ pos_ ] ) )
            {
                ++pos_;
            }
            const auto start = pos_;
            while( pos_ < seg_.len && is_letter( seg_.data[ pos_ ] ) )
            {
                ++pos_;
            }
            if( start >= seg_.body_len )
            {
                break;
            }
            /** a run at local offset 0 may be the tail of a word the
             *  previous segment owns (segments share one corpus) **/
            const bool continuation = start == 0 && seg_.offset > 0 &&
                                      is_letter( seg_.data[ -1 ] );
            if( pos_ > start && !continuation )
            {
                w.len = static_cast<std::uint8_t>(
                    std::min<std::size_t>( pos_ - start, w.text.size() ) );
                w.offset = static_cast<std::uint32_t>( seg_.offset + start );
                std::copy_n( seg_.data + start, w.len, w.text.begin() );
                return true;
            }
        }
        pos_ = seg_.len;
        return false;
    }

    kernel_probe *probe_;
    Trace *tr_;
    raft::mem_range seg_;
    std::size_t pos_{ 0 };
};

template <class Trace> class word_counter final : public raft::kernel
{
public:
    explicit word_counter( kernel_probe *probe )
        : tr_( slot_for<Trace>( probe ) )
    {
        input.addPort<word_t>( "0" );
        set_name( "sink" );
    }

    raft::kstatus run() override
    {
        const auto t = tr_->run_begin();
        word_t w;
        tr_->pop( [ & ] { input[ "0" ].pop<word_t>( w ); } );
        if( first_ == 0 )
        {
            first_ = now_ns();
        }
        ++count_;
        hash_ += fnv1a( w.text.data(), w.len );
        if constexpr( Trace::on )
        {
            if( stamped_id( w.offset, word_stamp_every ) )
            {
                tr_->stamp( w.offset );
            }
        }
        tr_->run_end( t );
        return raft::proceed;
    }

    bool ready() const override
    {
        tr_->contact();
        return raft::kernel::ready();
    }

    std::int64_t first() const noexcept { return first_; }
    u64 count() const noexcept { return count_; }
    u64 hash() const noexcept { return hash_; }

private:
    Trace *tr_;
    std::int64_t first_{ 0 };
    u64 count_{ 0 };
    u64 hash_{ 0 };
};

/** Pool scheduler, three workers: with the monitor, four threads. */
raft::run_options pool_options()
{
    raft::run_options o;
    o.scheduler         = raft::scheduler_kind::pool;
    o.pool_threads      = 3;
    o.replication_width = 2;
    return o;
}

class wordcount_pool final : public workload
{
public:
    /** The size of the reference pool runs (0.60-0.76 M words/s). */
    static constexpr std::size_t corpus_bytes = 8u << 20;
    static constexpr std::size_t segment      = 64u << 10;
    static constexpr std::size_t overlap      = 64;

    explicit wordcount_pool( const u64 seed )
    {
        raft::algo::corpus_options o;
        o.size_bytes      = corpus_bytes;
        o.seed            = seed;
        o.implant_per_mib = 0;
        /** a flatter word distribution over a larger vocabulary keeps
         *  bytes per word within a few percent across seeds, so MiB/s and
         *  words/s tell the same story on every seed **/
        o.zipf_s     = 0.7;
        o.vocabulary = 16384;
        corpus_ = std::make_shared<const std::string>(
            raft::algo::make_corpus( o ) );
        /** serial tokenization of the same corpus: the oracle **/
        const auto &c = *corpus_;
        std::size_t i = 0;
        while( i < c.size() )
        {
            while( i < c.size() && !is_letter( c[ i ] ) )
            {
                ++i;
            }
            const auto start = i;
            while( i < c.size() && is_letter( c[ i ] ) )
            {
                ++i;
            }
            if( i > start )
            {
                ++words_;
                hash_ += fnv1a( c.data() + start,
                                std::min( i - start, max_word_len ) );
            }
        }
    }

    rep_result run( const bool traced ) override
    {
        return traced ? rep<kernel_slot>() : rep<no_trace>();
    }

    const char *primary() const override { return "items_per_s"; }

private:
    template <class Trace> rep_result rep()
    {
        rep_result r;
        kernel_probe stage_p, sink_p;

        const auto t_assembly = now_ns();
        raft::map m;
        auto *counter = raft::kernel::make<word_counter<Trace>>( &sink_p );
        auto p        = m.link<raft::out>(
            raft::kernel::make<raft::filereader>( corpus_, overlap, segment ),
            raft::kernel::make<tokenizer<Trace>>( &stage_p ) );
        m.link<raft::out>( &( p.dst ), counter );
        execute<Trace>( m, pool_options(), t_assembly, r, stage_p, sink_p );

        r.setup_s = seconds( t_assembly, counter->first() );
        r.items   = static_cast<double>( counter->count() );
        r.mib = static_cast<double>( corpus_->size() ) / ( 1024.0 * 1024.0 );
        r.correct = counter->count() == words_ && counter->hash() == hash_;
        if( !r.correct )
        {
            r.error = "wordcount mismatch: " +
                      std::to_string( counter->count() ) + " words, want " +
                      std::to_string( words_ );
        }
        if constexpr( Trace::on )
        {
            r.trace.latency_us = r.trace.hop_wait_us;
        }
        return r;
    }

    std::shared_ptr<const std::string> corpus_;
    u64 words_{ 0 };
    u64 hash_{ 0 };
};

/* ------------------------------------------------------------------ */
/* search_ac: filereader → 2× search<ahocorasick> → write_each, pool   */
/* ------------------------------------------------------------------ */

/** write_each's output iterator: counts matches, stamps the first. */
struct hit_counter
{
    u64 *count;
    std::int64_t *first;

    hit_counter &operator*() { return *this; }
    hit_counter &operator++() { return *this; }
    hit_counter &operator=( const raft::match_t & )
    {
        if( *first == 0 )
        {
            *first = now_ns();
        }
        ++*count;
        return *this;
    }
};

/** search<ahocorasick> with its run() timed: the same pop, find and
 *  per-match push, through the library kernel's own matcher. */
class traced_search final : public raft::search<raft::ahocorasick>
{
public:
    traced_search( const std::string &pattern, kernel_probe *probe )
        : raft::search<raft::ahocorasick>( pattern ), pattern_( pattern ),
          probe_( probe ), tr_( &probe->add_slot() )
    {
        set_name( "stage" + std::to_string( probe->slot_count() - 1 ) );
    }

    raft::kstatus run() override
    {
        const auto t = tr_->run_begin();
        raft::mem_range seg;
        tr_->pop( [ & ] { input[ "0" ].pop<raft::mem_range>( seg ); } );
        engine().find( seg.data, seg.len,
                       [ & ]( const std::size_t pos, const std::uint32_t rule ) {
                           if( pos < seg.body_len )
                           {
                               const raft::match_t hit{ seg.offset + pos, rule };
                               tr_->stamp( hit.offset );
                               tr_->push( [ & ] {
                                   output[ "0" ].push<raft::match_t>( hit );
                               } );
                           }
                       } );
        tr_->run_end( t );
        return raft::proceed;
    }

    bool ready() const override
    {
        tr_->contact();
        return raft::search<raft::ahocorasick>::ready();
    }

    raft::kernel *clone() const override
    {
        return new traced_search( pattern_, probe_ );
    }

private:
    std::string pattern_;
    kernel_probe *probe_;
    kernel_slot *tr_;
};

/** Traced stand-in for write_each<match_t>: pops, counts and stamps. */
class match_sink final : public raft::kernel
{
public:
    explicit match_sink( kernel_probe *probe ) : tr_( &probe->add_slot() )
    {
        input.addPort<raft::match_t>( "0" );
        set_name( "sink" );
    }

    raft::kstatus run() override
    {
        const auto t = tr_->run_begin();
        raft::match_t hit;
        tr_->pop( [ & ] { input[ "0" ].pop<raft::match_t>( hit ); } );
        if( first_ == 0 )
        {
            first_ = now_ns();
        }
        ++count_;
        tr_->stamp( hit.offset );
        tr_->run_end( t );
        return raft::proceed;
    }

    bool ready() const override
    {
        tr_->contact();
        return raft::kernel::ready();
    }

    std::int64_t first() const noexcept { return first_; }
    u64 count() const noexcept { return count_; }

private:
    kernel_slot *tr_;
    std::int64_t first_{ 0 };
    u64 count_{ 0 };
};

class search_ac final : public workload
{
public:
    static constexpr std::size_t corpus_bytes = 128u << 20;

    explicit search_ac( const u64 seed )
    {
        raft::algo::corpus_options o;
        o.size_bytes      = corpus_bytes;
        o.seed            = seed;
        o.pattern         = search_pattern;
        o.implant_per_mib = 4.0;
        auto text         = raft::algo::make_corpus( o );
        /** a match in the first segment, so the first element reaches the
         *  sink as soon as the pipeline is up (setup_s) **/
        text.replace( 0, search_pattern.size(), search_pattern );
        corpus_ = std::make_shared<const std::string>( std::move( text ) );
        expect_ = raft::algo::oracle_count( *corpus_, search_pattern );
    }

    rep_result run( const bool traced ) override
    {
        rep_result r;
        /** per-segment runs and rare matches: time every call **/
        kernel_probe stage_p( 1 ), sink_p( 1 );
        u64 hits           = 0;
        std::int64_t first = 0;

        const auto t_assembly = now_ns();
        raft::map m;
        auto *reader = raft::kernel::make<raft::filereader>(
            corpus_, search_pattern.size() - 1 );
        if( traced )
        {
            auto *sink = raft::kernel::make<match_sink>( &sink_p );
            auto p     = m.link<raft::out>(
                reader, raft::kernel::make<traced_search>( search_pattern,
                                                           &stage_p ) );
            m.link<raft::out>( &( p.dst ), sink );
            execute<kernel_slot>( m, pool_options(), t_assembly, r, stage_p,
                                  sink_p );
            hits  = sink->count();
            first = sink->first();
            r.trace.latency_us = r.trace.hop_wait_us;
        }
        else
        {
            auto p = m.link<raft::out>(
                reader, raft::kernel::make<raft::search<raft::ahocorasick>>(
                            search_pattern ) );
            m.link<raft::out>(
                &( p.dst ), raft::kernel::make<raft::write_each<raft::match_t>>(
                                hit_counter{ &hits, &first } ) );
            execute<no_trace>( m, pool_options(), t_assembly, r, stage_p,
                               sink_p );
        }

        r.setup_s = seconds( t_assembly, first );
        r.mib = static_cast<double>( corpus_->size() ) / ( 1024.0 * 1024.0 );
        r.items = std::ceil( static_cast<double>( corpus_->size() ) /
                             raft::filereader::default_segment );
        r.correct = hits == expect_;
        if( !r.correct )
        {
            r.error = "search found " + std::to_string( hits ) +
                      " matches, oracle " + std::to_string( expect_ );
        }
        return r;
    }

    const char *primary() const override { return "mb_per_s"; }

private:
    std::shared_ptr<const std::string> corpus_;
    u64 expect_{ 0 };
};

} /** end anonymous namespace **/

std::unique_ptr<workload> make_workload( const std::string &name,
                                         const std::uint64_t seed )
{
    if( name == "chain_scalar" )
    {
        return std::make_unique<chain_scalar>( seed );
    }
    if( name == "paced_chain" )
    {
        return std::make_unique<paced_chain>( seed );
    }
    if( name == "wordcount_pool" )
    {
        return std::make_unique<wordcount_pool>( seed );
    }
    if( name == "search_ac" )
    {
        return std::make_unique<search_ac>( seed );
    }
    return nullptr;
}

} /** end namespace perfbench **/

/**
 * mc.cpp — the exhaustive-interleaving explorer behind mc::explore().
 *
 * Architecture: the model's threads are real std::threads, created once and
 * reused for every execution (cheap restarts, and the mutex/condvar token
 * handoff gives TSan a clean happens-before chain, so the checker itself can
 * run under the sanitizer jobs). Exactly one party runs at a time: each
 * worker announces its next visible operation via arrive() and parks; the
 * control thread (the caller of explore()) picks one enabled action, grants
 * it, and waits for the system to go quiescent again. Scheduling decisions
 * form a stack of DFS nodes; backtracking replays the decision prefix —
 * bodies are deterministic, so replay reproduces the state — and takes the
 * next sibling.
 *
 * Sleep sets (see mc.hpp header) prune commuting interleavings. Blocked
 * threads (retry_guard) are enabled only after another party commits a
 * store to an object the thread read during its failed attempt, tracked
 * with a per-execution commit log and per-thread read logs — a thread's
 * own commits never wake it, which is what makes `while( !try_x() )
 * wait();` loops explorable without livelock, and commits it never read
 * cannot change its next attempt, which keeps a spinning end from
 * re-running its attempt after every unrelated step. A state where every
 * unfinished thread is un-wakeable is reported as a deadlock with the full
 * trace.
 */
#include "analysis/mc/mc.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace raft {
namespace mc {

namespace detail {
engine_iface *g = nullptr;
} /** end namespace detail **/

std::string result::summary() const
{
    std::string s = "explored " + std::to_string( executions ) +
                    " executions / " + std::to_string( steps ) +
                    " steps; " + ( complete ? "complete" : "bounded" ) +
                    "; " + std::to_string( violations.size() ) +
                    " violation(s)";
    for( const auto &v : violations )
    {
        s += "\n  - " + v.message;
    }
    return s;
}

namespace {

thread_local int tls_tid = -1;

const char *op_name( const op k )
{
    switch( k )
    {
        case op::load:
            return "load";
        case op::store:
            return "store";
        case op::rmw:
            return "rmw";
        case op::flush:
            return "flush";
        case op::block:
            return "block";
        case op::fence:
            return "fence";
    }
    return "?";
}

const char *order_name( const int o )
{
    switch( static_cast<std::memory_order>( o ) )
    {
        case std::memory_order_relaxed:
            return "relaxed";
        case std::memory_order_consume:
            return "consume";
        case std::memory_order_acquire:
            return "acquire";
        case std::memory_order_release:
            return "release";
        case std::memory_order_acq_rel:
            return "acq_rel";
        case std::memory_order_seq_cst:
            return "seq_cst";
    }
    return "?";
}

/** Thread that owns an action's effects: flush(t) commits thread t's
 *  stores. */
int owner_of( const action &a )
{
    return a.actor >= max_threads ? a.actor - max_threads : a.actor;
}

class engine final : public detail::engine_iface
{
public:
    using verify_fn = std::function<void(
        const std::function<void( const std::string & )> & )>;

    engine( const options &o, const std::function<void()> &reset,
            const std::vector<std::function<void()>> &bodies,
            const verify_fn &verify )
        : opt_( o ), reset_( reset ), bodies_( bodies ), verify_( verify ),
          nthreads_( static_cast<int>( bodies.size() ) )
    {
        if( nthreads_ < 1 || nthreads_ > max_threads )
        {
            throw std::invalid_argument(
                "mc::explore: thread count must be 1.." +
                std::to_string( max_threads ) );
        }
    }

    ~engine() override
    {
        {
            std::lock_guard<std::mutex> lk( m_ );
            shutdown_ = true;
            cv_.notify_all();
        }
        for( auto &t : threads_ )
        {
            t.join();
        }
    }

    result run()
    {
        threads_.reserve( static_cast<std::size_t>( nthreads_ ) );
        for( int t = 0; t < nthreads_; ++t )
        {
            threads_.emplace_back( &engine::worker_main, this, t );
        }
        for( ;; )
        {
            if( res_.executions >= opt_.max_executions )
            {
                res_.complete = false;
                break;
            }
            const auto st = run_one();
            ++res_.executions;
            if( st == ex_status::violation && opt_.stop_on_violation )
            {
                res_.complete = false;
                break;
            }
            /** backtrack: advance the deepest node with an unexplored
             *  sibling, popping exhausted nodes */
            bool advanced = false;
            while( !nodes_.empty() )
            {
                auto &n = nodes_.back();
                if( n.pos + 1 < n.candidates.size() )
                {
                    ++n.pos;
                    advanced = true;
                    break;
                }
                nodes_.pop_back();
            }
            if( !advanced )
            {
                res_.complete = true;
                break;
            }
        }
        return res_;
    }

    /** @name engine_iface (called from worker threads) */
    ///@{
    void arrive( const action &a ) override
    {
        const int t = tls_tid;
        std::unique_lock<std::mutex> lk( m_ );
        pending_[ static_cast<std::size_t>( t ) ] = a;
        if( a.kind == op::block )
        {
            blocked_seq_[ static_cast<std::size_t>( t ) ] =
                static_cast<std::uint64_t>( a.value );
            state_[ static_cast<std::size_t>( t ) ] = ws::blocked;
        }
        else
        {
            state_[ static_cast<std::size_t>( t ) ] = ws::at_point;
        }
        cv_.notify_all();
        cv_.wait( lk, [ & ] { return aborting_ || granted_ == t; } );
        if( aborting_ )
        {
            throw execution_aborted{};
        }
        granted_                                = -1;
        state_[ static_cast<std::size_t>( t ) ] = ws::running;
        if( a.kind == op::load || a.kind == op::rmw )
        {
            /** the value this access observes includes exactly the
             *  commits logged so far */
            reads_[ static_cast<std::size_t>( t ) ].push_back(
                read_entry{ commit_log_.size(), a.obj } );
        }
        /** effect runs in the caller after return — exclusive, since the
         *  control thread waits for this worker to park again */
    }

    void log_value( const long long v ) override
    {
        std::lock_guard<std::mutex> lk( m_ );
        if( !log_.empty() )
        {
            log_.back().value = v;
        }
    }

    bool buffering() const override { return opt_.store_buffer > 0; }

    void buffer_store( const void *obj, const char *name,
                       std::function<void()> commit,
                       const long long traced ) override
    {
        const auto t = static_cast<std::size_t>( tls_tid );
        buf_entry oldest;
        bool overflow = false;
        {
            std::lock_guard<std::mutex> lk( m_ );
            buffers_[ t ].push_back(
                buf_entry{ obj, name, std::move( commit ), traced } );
            if( buffers_[ t ].size() >
                static_cast<std::size_t>( opt_.store_buffer ) )
            {
                oldest = std::move( buffers_[ t ].front() );
                buffers_[ t ].erase( buffers_[ t ].begin() );
                overflow = true;
            }
        }
        if( overflow )
        {
            /** buffer full: the oldest store drains to memory as part of
             *  this step (TSO buffers are finite) */
            oldest.commit();
            note_commit( static_cast<int>( t ), oldest.obj );
        }
    }

    void flush_own() override { drain( tls_tid ); }

    void flush_all() override
    {
        for( int t = 0; t < nthreads_; ++t )
        {
            drain( t );
        }
    }

    void bump_commit() override
    {
        note_commit( tls_tid,
                     pending_[ static_cast<std::size_t>( tls_tid ) ].obj );
    }

    std::uint64_t commit_mark() const override
    {
        std::lock_guard<std::mutex> lk( m_ );
        return commit_log_.size();
    }

    [[noreturn]] void fail( const std::string &msg ) override
    {
        {
            std::lock_guard<std::mutex> lk( m_ );
            record_violation( "assertion failed: " + msg );
            had_violation_ = true;
            aborting_      = true;
            cv_.notify_all();
        }
        throw execution_aborted{};
    }

    int tid() const override { return tls_tid; }
    ///@}

private:
    /** Objects whose memory value action a commits if executed now: a
     *  flush commits its thread's oldest buffered store; a buffered store
     *  commits nothing unless the buffer is full (then the oldest entry);
     *  a seq_cst store or an RMW drains its thread's buffer and then
     *  commits its own object; a heavy barrier drains every buffer.
     *  Caller holds m_. */
    std::vector<const void *> commits( const action &a ) const
    {
        std::vector<const void *> out;
        const auto &buf =
            buffers_[ static_cast<std::size_t>( owner_of( a ) ) ];
        switch( a.kind )
        {
            case op::flush:
                out.push_back( a.obj );
                break;
            case op::store:
                if( buffering() &&
                    a.order != static_cast<int>( std::memory_order_seq_cst ) )
                {
                    if( buf.size() >=
                        static_cast<std::size_t>( opt_.store_buffer ) )
                    {
                        out.push_back( buf.front().obj );
                    }
                    break;
                }
                [[fallthrough]];
            case op::rmw:
                for( const auto &e : buf )
                {
                    out.push_back( e.obj );
                }
                out.push_back( a.obj );
                break;
            case op::fence:
                for( const auto &tb : buffers_ )
                {
                    for( const auto &e : tb )
                    {
                        out.push_back( e.obj );
                    }
                }
                break;
            case op::load:
            case op::block:
                break;
        }
        return out;
    }

    /**
     * Dependence relation for the sleep sets, judged at the current state
     * (buffer contents decide what a store or a barrier commits). Two
     * actions are independent only when they commute AND neither
     * enables/disables the other; everything uncertain is declared a
     * conflict (less pruning, still sound). A store that only enters its
     * thread's buffer is invisible to other threads, so it commutes with
     * their accesses to the same object — its flush is what conflicts.
     * Caller holds m_.
     */
    bool conflict( const action &a, const action &b ) const
    {
        if( owner_of( a ) == owner_of( b ) )
        {
            /** same thread: program order; also a thread's store enables
             *  its own flush action. The exception: a thread's flush
             *  commutes with that thread's loads — a load forwards the
             *  newest buffered value, and committing the oldest entry
             *  leaves memory holding what the load would have forwarded */
            return !( ( a.kind == op::flush && b.kind == op::load ) ||
                      ( a.kind == op::load && b.kind == op::flush ) );
        }
        if( a.kind == op::fence || b.kind == op::fence )
        {
            /** a heavy barrier may wake anyone and changes what a later
             *  store or flush does: it commutes only with another
             *  thread's load of an object no third thread has buffered
             *  (a load forwards from its own buffer) */
            const auto &other = a.kind == op::fence ? b : a;
            if( other.kind != op::load )
            {
                return true;
            }
            const auto u = static_cast<std::size_t>( owner_of( other ) );
            for( std::size_t w = 0; w < buffers_.size(); ++w )
            {
                for( const auto &e : buffers_[ w ] )
                {
                    if( w != u && e.obj == other.obj )
                    {
                        return true;
                    }
                }
            }
            return false;
        }
        const auto ca = commits( a );
        const auto cb = commits( b );
        if( a.kind == op::block || b.kind == op::block )
        {
            /** a commit wakes a blocked thread only if it touches an
             *  object the thread read in its failed attempt */
            const auto &blk   = a.kind == op::block ? a : b;
            const auto &other = a.kind == op::block ? cb : ca;
            return std::any_of( other.begin(), other.end(),
                                [ & ]( const void *o )
                                { return watched( blk, o ); } );
        }
        const auto touches = []( const action &x,
                                 const std::vector<const void *> &cx,
                                 const void *obj )
        {
            return x.obj == obj ||
                   std::find( cx.begin(), cx.end(), obj ) != cx.end();
        };
        for( const void *o : ca )
        {
            if( touches( b, cb, o ) )
            {
                return true;
            }
        }
        for( const void *o : cb )
        {
            if( touches( a, ca, o ) )
            {
                return true;
            }
        }
        return false;
    }

    enum class ws : std::uint8_t
    {
        idle,
        running,
        at_point,
        blocked,
        finished
    };

    enum class ex_status : std::uint8_t
    {
        normal,
        violation,
        pruned
    };

    struct buf_entry
    {
        const void *obj{ nullptr };
        const char *name{ "" };
        std::function<void()> commit;
        long long value{ 0 };
    };

    struct node
    {
        std::vector<action> candidates;
        std::size_t pos{ 0 };
    };

    void worker_main( const int t )
    {
        tls_tid = t;
        std::unique_lock<std::mutex> lk( m_ );
        std::uint64_t seen_gen = 0;
        for( ;; )
        {
            cv_.wait( lk, [ & ]
                      { return shutdown_ || exec_gen_ != seen_gen; } );
            if( shutdown_ )
            {
                return;
            }
            seen_gen = exec_gen_;
            lk.unlock();
            try
            {
                bodies_[ static_cast<std::size_t>( t ) ]();
            }
            catch( const execution_aborted & )
            {
            }
            lk.lock();
            state_[ static_cast<std::size_t>( t ) ] = ws::finished;
            cv_.notify_all();
        }
    }

    /** Commit every buffered store of thread t, oldest first. Called by
     *  the worker that owns the current step. */
    void drain( const int t )
    {
        std::vector<buf_entry> entries;
        {
            std::lock_guard<std::mutex> lk( m_ );
            entries.swap( buffers_[ static_cast<std::size_t>( t ) ] );
        }
        for( auto &e : entries )
        {
            e.commit();
            note_commit( t, e.obj );
        }
    }

    void note_commit( const int t, const void *obj )
    {
        std::lock_guard<std::mutex> lk( m_ );
        commit_log_.push_back( commit_entry{ obj, t } );
    }

    /** True when blocked action blk's thread read obj after its
     *  retry_guard mark. Caller holds m_. */
    bool watched( const action &blk, const void *obj ) const
    {
        const auto t = static_cast<std::size_t>( blk.actor );
        return std::any_of(
            reads_[ t ].begin(), reads_[ t ].end(),
            [ & ]( const read_entry &r )
            {
                return r.at >= static_cast<std::uint64_t>( blk.value ) &&
                       r.obj == obj;
            } );
    }

    /** A blocked thread may run again once another thread committed a
     *  store to an object the thread read after its retry_guard mark, and
     *  committed it after that read. Caller holds m_. */
    bool wakeable( const std::size_t t ) const
    {
        const auto mark = blocked_seq_[ t ];
        for( auto c = static_cast<std::size_t>( mark );
             c < commit_log_.size(); ++c )
        {
            const auto &e = commit_log_[ c ];
            if( static_cast<std::size_t>( e.by ) == t )
            {
                continue;
            }
            for( const auto &r : reads_[ t ] )
            {
                /** a commit the read already observed changes nothing */
                if( r.at >= mark && c >= r.at && r.obj == e.obj )
                {
                    return true;
                }
            }
        }
        return false;
    }

    bool quiescent() const
    {
        for( int t = 0; t < nthreads_; ++t )
        {
            const auto s = state_[ static_cast<std::size_t>( t ) ];
            if( s != ws::at_point && s != ws::blocked && s != ws::finished )
            {
                return false;
            }
        }
        return true;
    }

    bool all_finished() const
    {
        for( int t = 0; t < nthreads_; ++t )
        {
            if( state_[ static_cast<std::size_t>( t ) ] != ws::finished )
            {
                return false;
            }
        }
        return true;
    }

    void record_violation( const std::string &msg )
    {
        if( res_.violations.size() < 8 )
        {
            res_.violations.push_back( violation{ msg, format_trace() } );
        }
    }

    std::vector<std::string> format_trace() const
    {
        std::vector<std::string> out;
        out.reserve( log_.size() );
        int i = 0;
        for( const auto &a : log_ )
        {
            std::string line = "#" + std::to_string( i++ ) + " ";
            if( a.actor >= max_threads )
            {
                line += "flush(T" +
                        std::to_string( a.actor - max_threads ) + ") ";
            }
            else
            {
                line += "T" + std::to_string( a.actor ) + " ";
            }
            line += op_name( a.kind );
            line += ' ';
            line += a.name;
            if( a.kind != op::block )
            {
                line += '=' + std::to_string( a.value ) + " (" +
                        order_name( a.order ) + ")";
            }
            out.push_back( std::move( line ) );
        }
        return out;
    }

    /** Unwind every live worker (they throw execution_aborted at their
     *  park point) and wait until all are finished. Caller holds lk. */
    void abort_execution( std::unique_lock<std::mutex> &lk )
    {
        aborting_ = true;
        cv_.notify_all();
        cv_.wait( lk, [ & ] { return all_finished(); } );
    }

    bool sleeping( const action &a ) const
    {
        return std::any_of( sleep_.begin(), sleep_.end(),
                            [ & ]( const action &s )
                            { return s.actor == a.actor; } );
    }

    ex_status run_one()
    {
        reset_(); /** workers are idle/finished — exclusive access */
        {
            std::lock_guard<std::mutex> lk( m_ );
            aborting_      = false;
            had_violation_ = false;
            granted_       = -1;
            log_.clear();
            commit_log_.clear();
            for( auto &r : reads_ )
            {
                r.clear();
            }
            for( auto &b : buffers_ )
            {
                b.clear();
            }
            for( int t = 0; t < nthreads_; ++t )
            {
                state_[ static_cast<std::size_t>( t ) ] = ws::running;
            }
            ++exec_gen_;
            cv_.notify_all();
        }
        sleep_.clear();
        std::size_t depth = 0;
        int steps         = 0;
        ex_status status  = ex_status::normal;

        std::unique_lock<std::mutex> lk( m_ );
        for( ;; )
        {
            cv_.wait( lk,
                      [ & ] { return granted_ == -1 && quiescent(); } );
            if( aborting_ )
            {
                /** a worker failed an mc::check — it already recorded the
                 *  violation; unwind the rest */
                cv_.wait( lk, [ & ] { return all_finished(); } );
                status = ex_status::violation;
                break;
            }
            if( all_finished() )
            {
                break;
            }
            /** enabled actions at this state */
            std::vector<action> enabled;
            for( int t = 0; t < nthreads_; ++t )
            {
                const auto ti = static_cast<std::size_t>( t );
                if( state_[ ti ] == ws::at_point )
                {
                    enabled.push_back( pending_[ ti ] );
                }
                else if( state_[ ti ] == ws::blocked && wakeable( ti ) )
                {
                    enabled.push_back( pending_[ ti ] );
                }
            }
            for( int t = 0; t < nthreads_; ++t )
            {
                const auto ti = static_cast<std::size_t>( t );
                if( !buffers_[ ti ].empty() )
                {
                    const auto &front = buffers_[ ti ].front();
                    enabled.push_back( action{ max_threads + t, op::flush,
                                               front.obj, front.name, 0,
                                               front.value } );
                }
            }
            if( enabled.empty() )
            {
                std::string who;
                for( int t = 0; t < nthreads_; ++t )
                {
                    if( state_[ static_cast<std::size_t>( t ) ] ==
                        ws::blocked )
                    {
                        who += ( who.empty() ? "T" : ", T" ) +
                               std::to_string( t );
                    }
                }
                record_violation(
                    "deadlock: every unfinished thread (" + who +
                    ") waits for a commit that can never happen" );
                abort_execution( lk );
                status = ex_status::violation;
                break;
            }
            action chosen;
            if( depth < nodes_.size() )
            {
                /** replay the DFS prefix */
                const auto &n = nodes_[ depth ];
                chosen        = n.candidates[ n.pos ];
                const bool ok = std::any_of(
                    enabled.begin(), enabled.end(),
                    [ & ]( const action &e )
                    { return e.actor == chosen.actor; } );
                if( !ok )
                {
                    record_violation(
                        "internal: replay divergence — model bodies are "
                        "not deterministic" );
                    abort_execution( lk );
                    status = ex_status::violation;
                    break;
                }
            }
            else
            {
                node n;
                for( const auto &e : enabled )
                {
                    if( !sleeping( e ) )
                    {
                        n.candidates.push_back( e );
                    }
                }
                if( n.candidates.empty() )
                {
                    /** every enabled action is asleep: this state is fully
                     *  covered by a sibling branch */
                    abort_execution( lk );
                    status = ex_status::pruned;
                    break;
                }
                nodes_.push_back( std::move( n ) );
                chosen = nodes_.back().candidates[ 0 ];
            }
            /** child sleep set: survivors of the current sleep set plus
             *  already-explored siblings, minus anything the chosen action
             *  conflicts with */
            {
                const auto &n = nodes_[ depth ];
                std::vector<action> ns;
                for( const auto &s : sleep_ )
                {
                    if( !conflict( s, chosen ) )
                    {
                        ns.push_back( s );
                    }
                }
                for( std::size_t i = 0; i < n.pos; ++i )
                {
                    if( !conflict( n.candidates[ i ], chosen ) )
                    {
                        ns.push_back( n.candidates[ i ] );
                    }
                }
                sleep_ = std::move( ns );
            }
            ++depth;
            ++steps;
            ++res_.steps;
            if( steps > opt_.max_steps )
            {
                record_violation( "livelock: execution exceeded " +
                                  std::to_string( opt_.max_steps ) +
                                  " steps" );
                abort_execution( lk );
                status = ex_status::violation;
                break;
            }
            log_.push_back( chosen );
            if( chosen.actor >= max_threads )
            {
                /** flush: commit the oldest buffered store of that thread.
                 *  Workers are all parked — running the commit closure
                 *  under the lock is exclusive. */
                const auto ti =
                    static_cast<std::size_t>( chosen.actor - max_threads );
                auto e = std::move( buffers_[ ti ].front() );
                buffers_[ ti ].erase( buffers_[ ti ].begin() );
                e.commit();
                commit_log_.push_back(
                    commit_entry{ e.obj, static_cast<int>( ti ) } );
            }
            else
            {
                granted_ = chosen.actor;
                cv_.notify_all();
            }
        }
        lk.unlock();
        if( status == ex_status::normal )
        {
            /** drain leftover buffered stores (no thread left to observe
             *  the intermediate states) so verify() sees final memory */
            for( auto &b : buffers_ )
            {
                for( auto &e : b )
                {
                    e.commit();
                }
                b.clear();
            }
            if( verify_ )
            {
                bool bad = false;
                std::string msg;
                verify_(
                    [ & ]( const std::string &m )
                    {
                        if( !bad )
                        {
                            bad = true;
                            msg = m;
                        }
                    } );
                if( bad )
                {
                    std::lock_guard<std::mutex> g2( m_ );
                    record_violation( "final-state check failed: " + msg );
                    status = ex_status::violation;
                }
            }
        }
        return status;
    }

    const options opt_;
    std::function<void()> reset_;
    std::vector<std::function<void()>> bodies_;
    verify_fn verify_;
    const int nthreads_;

    mutable std::mutex m_;
    std::condition_variable cv_;
    std::array<ws, max_threads> state_{};
    std::array<action, max_threads> pending_{};
    std::array<std::uint64_t, max_threads> blocked_seq_{};
    int granted_{ -1 };
    bool aborting_{ false };
    bool had_violation_{ false };
    bool shutdown_{ false };
    std::uint64_t exec_gen_{ 0 };

    std::array<std::vector<buf_entry>, max_threads> buffers_{};
    struct commit_entry
    {
        const void *obj{ nullptr };
        int by{ 0 };
    };
    struct read_entry
    {
        std::uint64_t at{ 0 }; /**< commit_log_ size when read */
        const void *obj{ nullptr };
    };
    std::vector<commit_entry> commit_log_;
    std::array<std::vector<read_entry>, max_threads> reads_{};

    std::vector<action> log_;
    std::vector<node> nodes_;
    std::vector<action> sleep_;

    result res_;
    std::vector<std::thread> threads_;
};

} /** end anonymous namespace **/

result explore(
    const options &opt, const std::function<void()> &reset,
    const std::vector<std::function<void()>> &threads,
    const std::function<
        void( const std::function<void( const std::string & )> & )> &verify )
{
    engine e( opt, reset, threads, verify );
    detail::g = &e;
    result r;
    try
    {
        r = e.run();
    }
    catch( ... )
    {
        detail::g = nullptr;
        throw;
    }
    detail::g = nullptr;
    return r;
}

} /** end namespace mc **/
} /** end namespace raft **/

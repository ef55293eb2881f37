/**
 * strmatch.hpp — exact string-matching algorithms (paper §5).
 *
 * The benchmark study parallelizes two algorithms with RaftLib:
 *  - Aho–Corasick [4]: automaton-based, "quite good for multiple string
 *    patterns"; examines every input byte.
 *  - Boyer–Moore–Horspool [27]: "often much faster for single pattern
 *    matching"; skips heuristically, so its downstream data volume is
 *    highly data-dependent (§3's dynamic-rate discussion).
 *
 * Also implemented:
 *  - Boyer–Moore (bad-character + good-suffix): the algorithm the paper's
 *    Apache Spark comparator runs;
 *  - memchr_matcher: memchr-accelerated first-byte scan + verify, standing
 *    in for GNU grep's tuned single-pattern matcher in the pgrep baseline;
 *  - naive_matcher: the obviously-correct oracle for property tests.
 *
 * All matchers implement the same interface over a byte window; both a
 * position-reporting find() and an allocation-free count() are provided
 * (count() is the hot path of the throughput benchmarks).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace raft::algo {

/** Called per match: (start position within the window, pattern index). */
using match_cb = std::function<void( std::size_t, std::uint32_t )>;

class matcher
{
public:
    virtual ~matcher() = default;

    /** Report every match with its start position in [0, len). */
    virtual void find( const char *data, std::size_t len,
                       const match_cb &on_match ) const = 0;

    /** Number of matches (no allocation, no callback overhead). */
    virtual std::uint64_t count( const char *data,
                                 std::size_t len ) const = 0;

    virtual const char *name() const noexcept = 0;

    /** Longest pattern length — the segment overlap needed so boundary-
     *  straddling matches are found (max_pattern_len() - 1 bytes). */
    virtual std::size_t max_pattern_len() const noexcept = 0;
};

/** Brute-force oracle: correct by inspection. */
class naive_matcher final : public matcher
{
public:
    explicit naive_matcher( std::string pattern );
    void find( const char *data, std::size_t len,
               const match_cb &on_match ) const override;
    std::uint64_t count( const char *data, std::size_t len ) const override;
    const char *name() const noexcept override { return "naive"; }
    std::size_t max_pattern_len() const noexcept override
    {
        return pattern_.size();
    }

private:
    std::string pattern_;
};

/** memchr on the first byte + memcmp verify (grep's hot loop in spirit). */
class memchr_matcher final : public matcher
{
public:
    explicit memchr_matcher( std::string pattern );
    void find( const char *data, std::size_t len,
               const match_cb &on_match ) const override;
    std::uint64_t count( const char *data, std::size_t len ) const override;
    const char *name() const noexcept override { return "memchr"; }
    std::size_t max_pattern_len() const noexcept override
    {
        return pattern_.size();
    }

private:
    std::string pattern_;
};

/** Boyer–Moore–Horspool [27]: bad-character skip only. */
class bmh_matcher final : public matcher
{
public:
    explicit bmh_matcher( std::string pattern );
    void find( const char *data, std::size_t len,
               const match_cb &on_match ) const override;
    std::uint64_t count( const char *data, std::size_t len ) const override;
    const char *name() const noexcept override
    {
        return "boyer-moore-horspool";
    }
    std::size_t max_pattern_len() const noexcept override
    {
        return pattern_.size();
    }

private:
    std::string pattern_;
    std::size_t skip_[ 256 ];
};

/** Full Boyer–Moore: bad-character + good-suffix rules. */
class bm_matcher final : public matcher
{
public:
    explicit bm_matcher( std::string pattern );
    void find( const char *data, std::size_t len,
               const match_cb &on_match ) const override;
    std::uint64_t count( const char *data, std::size_t len ) const override;
    const char *name() const noexcept override { return "boyer-moore"; }
    std::size_t max_pattern_len() const noexcept override
    {
        return pattern_.size();
    }

private:
    std::string pattern_;
    std::vector<std::ptrdiff_t> bad_char_; /** 256 entries             */
    std::vector<std::size_t> good_suffix_;
};

/**
 * Aho–Corasick [4]: multi-pattern automaton with a dense goto table.
 *
 * Every input byte still passes through the automaton; the scan only hides
 * the latency of its dependent table loads. The table is premultiplied
 * (a step is `state = next[state + byte]`), and a window is cut into
 * blocks of `lanes` slices whose walks advance in lock step, so their load
 * chains overlap. Lane k owns the matches that end in its slice and starts
 * from the root max_pattern_len() - 1 bytes before it: every match ending
 * in the slice starts at or after that point, so from the slice's first
 * byte on the lane is in the state a walk from the window's start would
 * be in. Lane 0 carries the previous block's final state instead. Each
 * lane records its match ends and states in a fixed array on the stack
 * (at most one per byte); find() reports them in lane order, which is the
 * serial walk's (position, rule) sequence, so no byte is walked twice and
 * nothing is allocated however dense the matches. count() only sums the
 * output counts, without a branch. A tail shorter than a block is walked
 * serially, as is every window when max_pattern_len() - 1 exceeds a slice
 * (lane 1's warm-up would start before its block).
 *
 * Three lanes is as wide as the paper's §5 premise allows: on one core AC
 * trails BMH, BM and memchr, and an adaptive search group commits to BMH
 * (calibration.rates_positive_and_ordered,
 * scaling.plain_grep_wins_single_core,
 * scaling.raft_bmh_dominates_raft_ac_everywhere and
 * synonym.search_group_finds_every_match test it). Wider scans are faster
 * but give that up: four lanes bring AC level with BM (984–1,110 against
 * 1,028–1,089 MiB/s in micro_algo_search; 1.76–1.82 against 1.54–1.63 GB/s
 * in the Fig. 10 calibration, on a 4-vCPU Xeon VM), and five lanes
 * calibrated AC above memchr in 1 of 20 runs.
 */
class aho_corasick_matcher final : public matcher
{
public:
    /** Lock-step walks per block. */
    static constexpr std::size_t lanes = 3;
    /** Bytes per lane slice. */
    static constexpr std::size_t slice = 1024;

    explicit aho_corasick_matcher( std::vector<std::string> patterns );
    explicit aho_corasick_matcher( std::string pattern )
        : aho_corasick_matcher(
              std::vector<std::string>{ std::move( pattern ) } )
    {
    }

    void find( const char *data, std::size_t len,
               const match_cb &on_match ) const override;
    std::uint64_t count( const char *data, std::size_t len ) const override;
    const char *name() const noexcept override { return "aho-corasick"; }
    std::size_t max_pattern_len() const noexcept override
    {
        return max_len_;
    }

    std::size_t state_count() const noexcept { return node_count_; }

private:
    struct output
    {
        std::uint32_t rule;
        std::uint32_t len;
    };

    /** The match ends one lane saw in its slice of a block, in order:
     *  at most one per byte, so the arrays never overflow. */
    struct lane_hits
    {
        /** offset in the slice of each match end */
        std::uint32_t end[ slice ];
        /** premultiplied automaton state at that end */
        std::uint32_t state[ slice ];
    };

    /** walk one block's lanes in lock step from `state` (lane 0) and the
     *  root (lanes 1..), calling step( lane, offset in its slice, state )
     *  after every byte; returns the state after the block */
    template <class Step>
    std::uint32_t scan_block( const unsigned char *block,
                              std::uint32_t state, Step &&step ) const;
    /** report every output of `state`, a match end at byte i */
    void report( std::size_t i, std::uint32_t state,
                 const match_cb &on_match ) const;

    std::vector<std::string> patterns_;
    std::size_t max_len_{ 0 };
    /** bytes per lock-step block; no window reaches it when a lane's
     *  warm-up (max_len_ - 1 bytes) exceeds a slice, so such sets walk
     *  serially. The lock-step pass costs about slice + warm-up dependent
     *  steps against lanes × slice for the serial walk, so it is not slower
     *  anywhere it is exact (measured with three lanes at a 1,025-byte
     *  pattern: 573–624 MiB/s against 362–367 serial at 1,026 bytes) */
    std::size_t block_{ std::numeric_limits<std::size_t>::max() };
    std::size_t node_count_{ 0 };
    /** dense transition table, premultiplied: next_[s + byte] is the next
     *  state s' × 256 for the state s × 256 */
    std::vector<std::uint32_t> next_;
    /** per-state match outputs (patterns ending at this state, including
     *  via failure-link chains — precomputed flat) */
    std::vector<std::vector<output>> outputs_;
    /** per-state count of outputs (fast path for count()) */
    std::vector<std::uint32_t> out_count_;
};

/** Algorithm tags used by the search kernel's template parameter:
 *  `search< ahocorasick >` / `search< boyermoore >` (Figure 9). */
struct ahocorasick
{
};
struct boyermoore
{
};
struct boyermoorehorspool
{
};

/** Factory keyed by tag type. */
template <class Tag>
std::unique_ptr<matcher> make_matcher( const std::string &pattern );

template <>
inline std::unique_ptr<matcher>
make_matcher<ahocorasick>( const std::string &pattern )
{
    return std::make_unique<aho_corasick_matcher>( pattern );
}

template <>
inline std::unique_ptr<matcher>
make_matcher<boyermoore>( const std::string &pattern )
{
    return std::make_unique<bm_matcher>( pattern );
}

template <>
inline std::unique_ptr<matcher>
make_matcher<boyermoorehorspool>( const std::string &pattern )
{
    return std::make_unique<bmh_matcher>( pattern );
}

} /** end namespace raft::algo **/

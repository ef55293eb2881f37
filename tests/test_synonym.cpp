/**
 * Synonymous kernel groupings (§4.2): signature validation, convergence
 * of the explore-then-commit policy onto the fastest alternative,
 * correctness under mid-stream swapping, cloning, and the §5 scenario —
 * a search kernel group holding both Aho–Corasick and
 * Boyer–Moore–Horspool.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include <algo/corpus.hpp>
#include <core/kernels/synonym.hpp>
#include <raft.hpp>

namespace {

using i64 = std::int64_t;

/** Transform with a configurable per-element busy cost. */
class costed_scaler : public raft::kernel
{
public:
    costed_scaler( const i64 scale, const int spin )
        : scale_( scale ), spin_( spin )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
    }
    raft::kstatus run() override
    {
        auto v           = input[ "0" ].pop_s<i64>();
        volatile i64 acc = 0;
        for( int i = 0; i < spin_; ++i )
        {
            acc = acc + i;
        }
        (void) acc;
        auto out = output[ "0" ].allocate_s<i64>();
        ( *out ) = *v * scale_;
        return raft::proceed;
    }
    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override
    {
        return new costed_scaler( scale_, spin_ );
    }

private:
    i64 scale_;
    int spin_;
};

std::unique_ptr<raft::kernel> alt( const i64 scale, const int spin )
{
    return std::make_unique<costed_scaler>( scale, spin );
}

/** Pass-through that sleeps `each` per invocation, and `planted` instead
 *  on its invocation number `planted_at`. A sleep lasts at least its
 *  time, so preemption can only lengthen an invocation. */
class sleeping_pass : public raft::kernel
{
public:
    sleeping_pass( const std::chrono::microseconds each,
                   const std::chrono::microseconds planted,
                   const std::size_t planted_at )
        : each_( each ), planted_( planted ), planted_at_( planted_at )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
    }
    raft::kstatus run() override
    {
        auto v         = input[ "0" ].pop_s<i64>();
        const auto nap = calls_++ == planted_at_ ? planted_ : each_;
        if( nap.count() > 0 )
        {
            std::this_thread::sleep_for( nap );
        }
        auto out = output[ "0" ].allocate_s<i64>();
        ( *out ) = *v;
        return raft::proceed;
    }

private:
    std::chrono::microseconds each_;
    std::chrono::microseconds planted_;
    std::size_t planted_at_;
    std::size_t calls_{ 0 };
};

} /** end anonymous namespace **/

TEST( synonym, rejects_empty_and_mismatched_groups )
{
    std::vector<std::unique_ptr<raft::kernel>> none;
    EXPECT_THROW( raft::synonym_kernel( std::move( none ) ),
                  raft::port_exception );

    class other_shape : public raft::kernel
    {
    public:
        other_shape() { input.addPort<double>( "0" ); }
        raft::kstatus run() override { return raft::stop; }
    };
    std::vector<std::unique_ptr<raft::kernel>> alts;
    alts.push_back( alt( 1, 0 ) );
    alts.push_back( std::make_unique<other_shape>() );
    EXPECT_THROW( raft::synonym_kernel( std::move( alts ) ),
                  raft::port_exception );
}

TEST( synonym, mirrors_port_signature )
{
    std::vector<std::unique_ptr<raft::kernel>> alts;
    alts.push_back( alt( 1, 0 ) );
    alts.push_back( alt( 1, 10 ) );
    raft::synonym_kernel group( std::move( alts ) );
    EXPECT_EQ( group.input.count(), 1u );
    EXPECT_EQ( group.output.count(), 1u );
    EXPECT_EQ( group.input[ "0" ].type(),
               std::type_index( typeid( i64 ) ) );
    EXPECT_EQ( group.alternative_count(), 2u );
}

TEST( synonym, converges_to_fastest_alternative )
{
    /** alternative 1 is ~100x cheaper; results identical (scale 3) **/
    std::vector<std::unique_ptr<raft::kernel>> alts;
    alts.push_back( alt( 3, 50'000 ) );
    alts.push_back( alt( 3, 500 ) );
    raft::swap_policy policy;
    policy.probe_window     = 16;
    policy.recheck_interval = 0; /** commit once **/
    auto *group = raft::kernel::make<raft::synonym_kernel>(
        std::move( alts ), policy );

    const std::size_t count = 500;
    std::vector<i64> out;
    raft::map m;
    auto p = m.link( raft::kernel::make<raft::generate<i64>>(
                         count,
                         []( std::size_t i ) { return i64( i ); } ),
                     group );
    m.link( &( p.dst ), raft::kernel::make<raft::write_each<i64>>(
                            std::back_inserter( out ) ) );
    m.exe();

    EXPECT_EQ( group->active(), 1u ); /** committed to the cheap one **/
    EXPECT_GE( group->swap_count(), 1u );
    EXPECT_GT( group->median_invocation_ns( 0 ),
               group->median_invocation_ns( 1 ) );
    ASSERT_EQ( out.size(), count );
    for( std::size_t i = 0; i < count; ++i )
    {
        EXPECT_EQ( out[ i ], i64( 3 * i ) ); /** swap never corrupted **/
    }
}

TEST( synonym, one_slow_invocation_does_not_flip_the_choice )
{
    /** alternative 0 sleeps 2 ms per invocation. Alternative 1 does not
     *  sleep, except for 50 ms on one invocation of its 8-call window:
     *  its mean (over 6 ms) is above alternative 0's, its median is not
     *  **/
    using std::chrono::microseconds;
    std::vector<std::unique_ptr<raft::kernel>> alts;
    alts.push_back( std::make_unique<sleeping_pass>(
        microseconds( 2'000 ), microseconds( 2'000 ), 0 ) );
    alts.push_back( std::make_unique<sleeping_pass>(
        microseconds( 0 ), microseconds( 50'000 ), 3 ) );
    raft::swap_policy policy;
    policy.probe_window     = 8;
    policy.recheck_interval = 0;
    auto *group = raft::kernel::make<raft::synonym_kernel>(
        std::move( alts ), policy );

    const std::size_t count = 64;
    std::vector<i64> out;
    raft::map m;
    auto p = m.link( raft::kernel::make<raft::generate<i64>>(
                         count,
                         []( std::size_t i ) { return i64( i ); } ),
                     group );
    m.link( &( p.dst ), raft::kernel::make<raft::write_each<i64>>(
                            std::back_inserter( out ) ) );
    m.exe();

    EXPECT_EQ( group->active(), 1u );
    EXPECT_GE( group->median_invocation_ns( 0 ), 2e6 );
    EXPECT_LT( group->median_invocation_ns( 1 ),
               group->median_invocation_ns( 0 ) );
    EXPECT_EQ( out.size(), count );
}

TEST( synonym, recheck_interval_triggers_reprobe )
{
    std::vector<std::unique_ptr<raft::kernel>> alts;
    alts.push_back( alt( 2, 100 ) );
    alts.push_back( alt( 2, 100 ) );
    raft::swap_policy policy;
    policy.probe_window     = 4;
    policy.recheck_interval = 32;
    auto *group = raft::kernel::make<raft::synonym_kernel>(
        std::move( alts ), policy );
    std::vector<i64> out;
    raft::map m;
    auto p = m.link( raft::kernel::make<raft::generate<i64>>(
                         400,
                         []( std::size_t i ) { return i64( i ); } ),
                     group );
    m.link( &( p.dst ), raft::kernel::make<raft::write_each<i64>>(
                            std::back_inserter( out ) ) );
    m.exe();
    /** several probe rounds must have happened over 400 elements **/
    EXPECT_GE( group->swap_count(), 3u );
    EXPECT_EQ( out.size(), 400u );
}

TEST( synonym, clone_clones_all_alternatives )
{
    std::vector<std::unique_ptr<raft::kernel>> alts;
    alts.push_back( alt( 5, 0 ) );
    alts.push_back( alt( 5, 0 ) );
    raft::synonym_kernel group( std::move( alts ) );
    EXPECT_TRUE( group.clone_supported() );
    std::unique_ptr<raft::kernel> c( group.clone() );
    ASSERT_NE( c, nullptr );
    auto *cs = dynamic_cast<raft::synonym_kernel *>( c.get() );
    ASSERT_NE( cs, nullptr );
    EXPECT_EQ( cs->alternative_count(), 2u );
}

TEST( synonym, non_clonable_alternative_blocks_cloning )
{
    class fixed : public raft::kernel
    {
    public:
        fixed()
        {
            input.addPort<i64>( "0" );
            output.addPort<i64>( "0" );
        }
        raft::kstatus run() override { return raft::stop; }
    };
    std::vector<std::unique_ptr<raft::kernel>> alts;
    alts.push_back( alt( 1, 0 ) );
    alts.push_back( std::make_unique<fixed>() );
    raft::synonym_kernel group( std::move( alts ) );
    EXPECT_FALSE( group.clone_supported() );
    EXPECT_EQ( group.clone(), nullptr );
}

TEST( synonym, search_group_finds_every_match )
{
    /** the §5 scenario: one "search" kernel, two algorithms inside **/
    raft::algo::corpus_options copt;
    copt.size_bytes      = 256 * 1024;
    copt.pattern         = "adaptivekernel";
    copt.implant_per_mib = 200.0;
    auto corpus = std::make_shared<const std::string>(
        raft::algo::make_corpus( copt ) );
    const auto expect =
        raft::algo::oracle_count( *corpus, copt.pattern );
    ASSERT_GT( expect, 0u );

    std::vector<std::unique_ptr<raft::kernel>> alts;
    alts.push_back(
        std::make_unique<raft::search<raft::ahocorasick>>(
            copt.pattern ) );
    alts.push_back(
        std::make_unique<raft::search<raft::boyermoorehorspool>>(
            copt.pattern ) );
    raft::swap_policy policy;
    policy.probe_window = 8;
    auto *group = raft::kernel::make<raft::synonym_kernel>(
        std::move( alts ), policy );

    std::vector<raft::match_t> hits;
    raft::map m;
    auto p = m.link(
        raft::kernel::make<raft::filereader>( corpus,
                                              copt.pattern.size() - 1,
                                              4096 ),
        group );
    m.link( &( p.dst ),
            raft::kernel::make<raft::write_each<raft::match_t>>(
                std::back_inserter( hits ) ) );
    m.exe();
    EXPECT_EQ( hits.size(), expect );
    /** with BMH much faster than AC it should have committed to it **/
    EXPECT_EQ( group->active_name().find( "ahocorasick" ),
               std::string::npos );
}

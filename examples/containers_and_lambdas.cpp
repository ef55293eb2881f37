/**
 * containers_and_lambdas — the legacy-integration features of §4.2:
 *
 *  - Figure 5: C++ standard-library containers as stream sources and
 *    sinks (read_each / write_each);
 *  - Figure 6: for_each — a user array used in place as a zero-copy
 *    queue, reduced to a single value;
 *  - Figure 7: lambda kernels (lambdak) — fully functional kernels with
 *    no class boilerplate;
 *  - seq_tag / reorder: out-of-order parallel processing with order
 *    restored downstream (§4.1's third ordering paradigm).
 */
#include <cstdio>
#include <iterator>
#include <numeric>
#include <vector>

#include <raft.hpp>

int main()
{
    /* ---- Figure 5: container to container ---- */
    {
        /** data source container **/
        std::vector<std::uint32_t> v;
        int i( 0 );
        auto func( [ & ]() { return i++; } );
        while( i < 1000 )
        {
            v.push_back( func() );
        }
        /** receiver container **/
        std::vector<std::uint32_t> o;
        raft::map map;
        map.link( raft::kernel::make<raft::read_each<std::uint32_t>>(
                      v.begin(), v.end() ),
                  raft::kernel::make<raft::write_each<std::uint32_t>>(
                      std::back_inserter( o ) ) );
        map.exe();
        /** data is now copied to 'o' **/
        std::printf( "figure 5: copied %zu elements via independent "
                     "threads (equal: %s)\n",
                     o.size(), o == v ? "yes" : "no" );
    }

    /* ---- Figure 6: zero-copy for_each + reduce ---- */
    {
        /** 50'000 keeps the int sum below INT_MAX (signed overflow is
         *  undefined, and the UBSan build halts on it) **/
        std::vector<int> arr( 50'000 );
        std::iota( arr.begin(), arr.end(), 0 );
        int val = 0;
        raft::map map;
        map.link( raft::kernel::make<raft::for_each<int>>(
                      arr.data(), arr.size() ),
                  raft::kernel::make<raft::range_reduce<int>>( val ) );
        map.exe();
        /** val now has the result **/
        std::printf( "figure 6: zero-copy reduction over %zu ints = %d "
                     "(expected %d)\n",
                     arr.size(), val,
                     std::accumulate( arr.begin(), arr.end(), 0 ) );
    }

    /* ---- Figure 7: lambda kernels ---- */
    {
        std::size_t emitted = 0;
        raft::map map;
        map.link(
            /** instantiate lambda kernel as source **/
            raft::kernel::make<raft::lambdak<std::uint32_t>>(
                0, 1,
                [ &emitted ]( raft::Port &,
                              raft::Port &output ) -> raft::kstatus {
                    if( emitted == 8 )
                    {
                        return raft::stop;
                    }
                    auto out( output[ "0" ]
                                  .allocate_s<std::uint32_t>() );
                    ( *out ) = static_cast<std::uint32_t>(
                        emitted * emitted );
                    ++emitted;
                    return raft::proceed;
                } /** end lambda kernel **/ ),
            /** instantiate print kernel as destination **/
            raft::kernel::make<raft::print<std::uint32_t, ' '>>() );
        std::printf( "figure 7: lambda kernel emits squares: " );
        map.exe();
        std::printf( "\n" );
    }

    /* ---- §4.1: out-of-order processing, re-ordered later ---- */
    {
        class tagged_negate : public raft::kernel
        {
        public:
            tagged_negate()
            {
                input.addPort<raft::seq_item<int>>( "0" );
                output.addPort<raft::seq_item<int>>( "0" );
            }
            raft::kstatus run() override
            {
                auto v = input[ "0" ].pop_s<raft::seq_item<int>>();
                auto o =
                    output[ "0" ].allocate_s<raft::seq_item<int>>();
                o->seq   = v->seq;
                o->value = -v->value;
                return raft::proceed;
            }
            bool clone_supported() const override { return true; }
            raft::kernel *clone() const override
            {
                return new tagged_negate();
            }
        };

        std::vector<int> out;
        raft::map m;
        auto a = m.link( raft::kernel::make<raft::generate<int>>(
                             10'000,
                             []( std::size_t i ) { return int( i ); } ),
                         raft::kernel::make<raft::seq_tag<int>>() );
        auto b = m.link<raft::out>(
            &( a.dst ), raft::kernel::make<tagged_negate>() );
        auto c = m.link<raft::out>(
            &( b.dst ), raft::kernel::make<raft::reorder<int>>() );
        m.link( &( c.dst ), raft::kernel::make<raft::write_each<int>>(
                                std::back_inserter( out ) ) );
        raft::run_options opts;
        opts.replication_width = 4;
        m.exe( opts );
        bool ordered = true;
        for( std::size_t i = 0; i < out.size(); ++i )
        {
            ordered = ordered && out[ i ] == -static_cast<int>( i );
        }
        std::printf( "reorder: %zu elements processed by 4 replicas, "
                     "order restored: %s\n",
                     out.size(), ordered ? "yes" : "no" );
    }
    return 0;
}

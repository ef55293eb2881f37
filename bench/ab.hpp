/**
 * ab.hpp — the A/B harness behind every checked-in BENCH_*.json.
 *
 * A row times two arms of one measurement in `pairs` back-to-back pairs.
 * The arm that runs first alternates from pair to pair (the second run of
 * a pair finds warm caches and a warm allocator), and every sample is
 * kept. For each arm the row reports the median, the quartiles and the
 * minimum, and it reports in how many pairs arm B took less time than arm
 * A, so a reader can tell a gap from the spread. A sample is the arm's
 * wall time divided by the operations one call performs (ns per op).
 *
 * The document names the host it ran on; print() writes it to stdout as
 * one JSON object.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace bench {

/** Pairs per row. A constant, so every row has the same statistic. */
constexpr int pairs = 10;

inline std::string cpu_model()
{
    std::ifstream f( "/proc/cpuinfo" );
    std::string line;
    while( std::getline( f, line ) )
    {
        if( line.rfind( "model name", 0 ) == 0 )
        {
            const auto colon = line.find( ':' );
            return line.substr( line.find_first_not_of( " \t", colon + 1 ) );
        }
    }
    return "unknown";
}

/** Quantile `q` of `v`, interpolated linearly between ranks. */
inline double quantile( std::vector<double> v, const double q )
{
    std::sort( v.begin(), v.end() );
    const double pos = q * static_cast<double>( v.size() - 1 );
    const auto lo    = static_cast<std::size_t>( pos );
    const auto hi    = std::min( lo + 1, v.size() - 1 );
    return v[ lo ] +
           ( pos - static_cast<double>( lo ) ) * ( v[ hi ] - v[ lo ] );
}

class doc
{
public:
    explicit doc( std::string bench ) : bench_( std::move( bench ) ) {}

    /**
     * Time `a` and `b`, each called once per pair and doing `ops`
     * operations per call, and add the row. `what` says what one op is.
     */
    template <class A, class B>
    void row( const char *name, const std::string &what,
              const std::size_t ops, const char *a_name, A &&a,
              const char *b_name, B &&b )
    {
        std::vector<double> sa, sb;
        const auto time = [ ops ]( auto &&arm ) {
            const auto t0 = std::chrono::steady_clock::now();
            arm();
            return std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - t0 )
                       .count() /
                   static_cast<double>( ops );
        };
        int b_faster = 0;
        for( int p = 0; p < pairs; ++p )
        {
            if( p % 2 == 0 )
            {
                sa.push_back( time( a ) );
                sb.push_back( time( b ) );
            }
            else
            {
                sb.push_back( time( b ) );
                sa.push_back( time( a ) );
            }
            b_faster += sb.back() < sa.back() ? 1 : 0;
        }
        const auto ma = quantile( sa, 0.5 );
        const auto mb = quantile( sb, 0.5 );
        rows_ += rows_.empty() ? "\n" : ",\n";
        rows_ += "    { \"row\": \"" + std::string( name ) +
                 "\",\n      \"what\": \"" + what + "\",\n" +
                 arm_json( "a", a_name, sa ) + arm_json( "b", b_name, sb );
        rows_ += "      \"b_over_a\": " + num( mb / ma ) +
                 ", \"b_minus_a\": " + num( mb - ma ) +
                 ", \"b_faster_pairs\": " + std::to_string( b_faster ) +
                 " }";
    }

    /** A top-level number that is not a timing (a count the run saw). */
    void field( const char *key, const double value )
    {
        fields_ += ",\n  \"" + std::string( key ) + "\": " + num( value );
    }

    void print() const
    {
        std::printf(
            "{\n  \"bench\": \"%s\",\n"
            "  \"host\": { \"cpu_model\": \"%s\", \"nproc\": %u, "
            "\"compiler\": \"%s\" },\n"
            "  \"pairs\": %d,\n"
            "  \"statistic\": \"per arm, one sample per pair in ns per "
            "op, the first arm alternating; median, quartiles q1 and q3, "
            "minimum; b_over_a and b_minus_a compare the medians\",\n"
            "  \"rows\": [%s\n  ]%s\n}\n",
            bench_.c_str(), cpu_model().c_str(),
            std::thread::hardware_concurrency(), __VERSION__, pairs,
            rows_.c_str(), fields_.c_str() );
    }

private:
    static std::string num( const double v )
    {
        char buf[ 32 ];
        std::snprintf( buf, sizeof( buf ), "%.6g", v );
        return buf;
    }

    static std::string arm_json( const char *key, const char *name,
                                 const std::vector<double> &s )
    {
        std::string out = "      \"" + std::string( key ) +
                          "\": { \"arm\": \"" + name +
                          "\", \"median\": " + num( quantile( s, 0.5 ) ) +
                          ", \"q1\": " + num( quantile( s, 0.25 ) ) +
                          ", \"q3\": " + num( quantile( s, 0.75 ) ) +
                          ", \"min\": " + num( quantile( s, 0.0 ) ) +
                          ",\n             \"samples\": [";
        for( std::size_t i = 0; i < s.size(); ++i )
        {
            out += ( i == 0 ? "" : ", " ) + num( s[ i ] );
        }
        return out + "] },\n";
    }

    std::string bench_;
    std::string rows_;
    std::string fields_;
};

} /** end namespace bench **/

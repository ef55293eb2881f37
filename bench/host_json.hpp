/**
 * host_json.hpp — the host fields that the benches' --quick JSON records
 * (CPU model, logical CPUs, compiler), so that a checked-in BENCH_*.json
 * names the machine it was measured on.
 */
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace bench {

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

/** Print a `"host": { ... },` member, each line prefixed by `indent`. */
inline void print_host_json( const char *indent )
{
    std::printf( "%s\"host\": {\n", indent );
    std::printf( "%s  \"cpu_model\": \"%s\",\n", indent,
                 cpu_model().c_str() );
    std::printf( "%s  \"nproc\": %u,\n", indent,
                 std::thread::hardware_concurrency() );
    std::printf( "%s  \"compiler\": \"%s\"\n", indent, __VERSION__ );
    std::printf( "%s},\n", indent );
}

} /** end namespace bench **/

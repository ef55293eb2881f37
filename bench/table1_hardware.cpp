/**
 * Table 1 — "Summary of Benchmarking Hardware."
 *
 * The paper reports: Intel Xeon E5-2650, 16 cores, 62 GB RAM,
 * Linux 2.6.32. This harness prints the same row for the machine the
 * reproduction actually runs on, plus the live calibration constants the
 * Figure 10 simulation uses (see DESIGN.md §3 for the substitution).
 */
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include <sys/utsname.h>

#include "ab.hpp"

namespace {

double ram_gb()
{
    std::ifstream f( "/proc/meminfo" );
    std::string key;
    long kb = 0;
    while( f >> key >> kb )
    {
        if( key == "MemTotal:" )
        {
            return static_cast<double>( kb ) / ( 1024.0 * 1024.0 );
        }
        std::string rest;
        std::getline( f, rest );
    }
    return 0.0;
}

} /** end anonymous namespace **/

int main()
{
    utsname u{};
    uname( &u );
    std::printf( "Table 1: Summary of Benchmarking Hardware\n" );
    std::printf( "%-18s %-8s %-10s %s\n", "Processor", "Cores", "RAM",
                 "OS Version" );
    std::printf( "%-18.18s %-8u %-7.1f GB Linux %s\n",
                 bench::cpu_model().c_str(),
                 std::thread::hardware_concurrency(), ram_gb(),
                 u.release );
    std::printf( "\npaper reference: Intel Xeon E5-2650, 16 cores, "
                 "62 GB, Linux 2.6.32\n" );
    std::printf( "(see DESIGN.md: core counts beyond this host are "
                 "simulated via the calibrated DES)\n" );
    return 0;
}

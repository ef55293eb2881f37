/**
 * print.hpp — terminal sink kernel (Figures 1 & 3: "the last kernel prints
 * the result"). `print< std::int64_t, '\n' >` writes each element followed
 * by the delimiter. The output stream is injectable for testing.
 */
#pragma once

#include <iostream>
#include <ostream>

#include "core/kernel.hpp"

namespace raft {

template <class T, char delim = '\n'> class print : public kernel
{
public:
    print() : print( std::cout ) {}

    explicit print( std::ostream &os )
        : kernel(), in_( input.addPort<T>( "0" ) ), os_( &os )
    {
    }

    kstatus run() override
    {
        auto in = in_.pop_s<T>();
        ( *os_ ) << ( *in ) << delim;
        return raft::proceed;
    }

private:
    port &in_;
    std::ostream *os_;
};

} /** end namespace raft **/

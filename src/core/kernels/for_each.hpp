/**
 * for_each.hpp — zero-copy array source (Figure 6).
 *
 * "The for_each takes a pointer value and uses its memory space directly as
 * a queue for downstream compute kernels... essentially a zero copy...
 * Unlike the C++ standard library for_each, the RaftLib version provides an
 * index to indicate position within the array... When this kernel is
 * executed, it appears as a kernel only momentarily, essentially providing
 * a data source for the downstream compute kernels to read."
 *
 * The kernel emits raft::range<T> descriptors — pointer, length, start
 * index — dividing the array into segments; downstream kernels read the
 * user's memory in place. Descriptor granularity is configurable; with
 * automatic parallelization the split adapter deals descriptors (16 bytes
 * each) to replicas while the payload never moves.
 */
#pragma once

#include <cstddef>

#include "core/kernel.hpp"
#include "core/kernels/segment.hpp"

namespace raft {

template <class T> class for_each : public kernel
{
public:
    for_each( const T *data, const std::size_t length,
              const std::size_t segment_elems = 4096 )
        : kernel(), out_( output.addPort<range<T>>( "0" ) ), data_( data ),
          length_( length ),
          segment_( segment_elems == 0 ? 1 : segment_elems )
    {
    }

    /** Descriptors emitted per run(): one write-window handshake publishes
     *  a whole batch of segments. */
    static constexpr std::size_t batch = 64;

    kstatus run() override
    {
        if( cursor_ >= length_ )
        {
            return raft::stop;
        }
        auto w = out_.allocate_range<range<T>>( batch );
        std::size_t i = 0;
        while( i < w.size() && cursor_ < length_ )
        {
            const auto n  = std::min( segment_, length_ - cursor_ );
            auto &d       = w[ i++ ];
            d.data        = data_ + cursor_;
            d.len         = n;
            d.offset      = cursor_;
            cursor_ += n;
        }
        w.publish( i );
        if( cursor_ >= length_ )
        {
            w.set_signal( raft::eos );
            return raft::stop;
        }
        return raft::proceed;
    }

private:
    port &out_;
    const T *data_;
    std::size_t length_;
    std::size_t segment_;
    std::size_t cursor_{ 0 };
};

} /** end namespace raft **/

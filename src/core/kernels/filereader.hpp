/**
 * filereader.hpp — corpus source for the string-matching application
 * (Figure 8/9). Reads a file (or adopts an in-memory corpus) once, then
 * emits zero-copy mem_range descriptors: "the file read exists as an
 * independent kernel only momentarily as a notional data source since the
 * run-time utilizes zero copy, and the file is directly read into the
 * in-bound queues of each match kernel" (§5).
 *
 * Segments carry `overlap` bytes past their body so matches straddling a
 * boundary are found exactly once (see segment.hpp).
 */
#pragma once

#include <fstream>
#include <memory>
#include <string>

#include "core/exceptions.hpp"
#include "core/kernel.hpp"
#include "core/kernels/segment.hpp"

namespace raft {

class filereader : public kernel
{
public:
    static constexpr std::size_t default_segment = 1u << 16; /** 64 KiB **/

    /** Read from a file path. `overlap` should be max_pattern_len - 1. */
    filereader( const std::string &path, const std::size_t overlap,
                const std::size_t segment_bytes = default_segment )
        : filereader( load( path ), overlap, segment_bytes )
    {
    }

    /** Adopt an already-resident corpus (shared, immutable). */
    filereader( std::shared_ptr<const std::string> corpus,
                const std::size_t overlap,
                const std::size_t segment_bytes = default_segment )
        : kernel(), out_( output.addPort<mem_range>( "0" ) ),
          corpus_( std::move( corpus ) ), overlap_( overlap ),
          segment_( segment_bytes == 0 ? 1 : segment_bytes )
    {
    }

    /** Descriptors emitted per run(): one write-window handshake publishes
     *  a whole batch of segments. */
    static constexpr std::size_t batch = 64;

    kstatus run() override
    {
        const auto total = corpus_->size();
        if( cursor_ >= total )
        {
            return raft::stop;
        }
        auto w = out_.allocate_range<mem_range>( batch );
        std::size_t i = 0;
        while( i < w.size() && cursor_ < total )
        {
            const auto body = std::min( segment_, total - cursor_ );
            const auto len  = std::min( body + overlap_, total - cursor_ );
            auto &d         = w[ i++ ];
            d.data          = corpus_->data() + cursor_;
            d.len           = len;
            d.body_len      = body;
            d.offset        = cursor_;
            cursor_ += body;
        }
        w.publish( i );
        if( cursor_ >= total )
        {
            w.set_signal( raft::eos );
            return raft::stop;
        }
        return raft::proceed;
    }

    std::size_t total_bytes() const noexcept { return corpus_->size(); }

private:
    static std::shared_ptr<const std::string>
    load( const std::string &path )
    {
        std::ifstream in( path, std::ios::binary );
        if( !in )
        {
            throw raft_exception( "filereader: cannot open '" + path +
                                  "'" );
        }
        auto buf = std::make_shared<std::string>(
            std::istreambuf_iterator<char>( in ),
            std::istreambuf_iterator<char>() );
        return buf;
    }

    port &out_;
    std::shared_ptr<const std::string> corpus_;
    std::size_t overlap_;
    std::size_t segment_;
    std::size_t cursor_{ 0 };
};

} /** end namespace raft **/

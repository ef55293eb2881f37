/**
 * search.hpp — string-matching compute kernel (Figure 9):
 *
 *   kernel::make< search< ahocorasick > >( search_term )
 *
 * "The exact algorithm is chosen by specifying the desired algorithm as a
 * template parameter to select the correct template specialization." The
 * kernel is clonable, so linking it with raft::out lets the runtime
 * replicate it into the Figure 8 topology (read/distribute → n × match →
 * reduce). It also illustrates the paper's synonymous-kernel idea: every
 * specialization exposes the same ports, so algorithms are swappable
 * without touching the topology.
 */
#pragma once

#include <memory>
#include <string>

#include "algo/strmatch.hpp"
#include "core/kernel.hpp"
#include "core/kernels/segment.hpp"

namespace raft {

/** A pattern occurrence: global byte offset + pattern index. */
struct match_t
{
    std::size_t offset{ 0 };
    std::uint32_t rule{ 0 };

    bool operator==( const match_t &o ) const noexcept
    {
        return offset == o.offset && rule == o.rule;
    }
    bool operator<( const match_t &o ) const noexcept
    {
        return offset < o.offset ||
               ( offset == o.offset && rule < o.rule );
    }
};

template <class Algo> class search : public kernel
{
public:
    explicit search( std::string pattern )
        : kernel(), in_( input.addPort<mem_range>( "0" ) ),
          out_( output.addPort<match_t>( "0" ) ),
          pattern_( std::move( pattern ) ),
          matcher_( algo::make_matcher<Algo>( pattern_ ) )
    {
    }

    kstatus run() override
    {
        auto seg = in_.pop_s<mem_range>();
        matcher_->find(
            seg->data, seg->len,
            [ & ]( const std::size_t pos, const std::uint32_t rule ) {
                /** overlap discipline: a match belongs to the segment in
                 *  whose body it starts **/
                if( pos < seg->body_len )
                {
                    out_.push<match_t>( match_t{ seg->offset + pos, rule } );
                }
            } );
        return raft::proceed;
    }

    bool clone_supported() const override { return true; }

    kernel *clone() const override
    {
        return new search<Algo>( pattern_ );
    }

    const algo::matcher &engine() const noexcept { return *matcher_; }

private:
    port &in_;
    port &out_;
    std::string pattern_;
    std::unique_ptr<algo::matcher> matcher_;
};

/** Tag aliases in raft:: so application code reads like the paper's. */
using ahocorasick        = algo::ahocorasick;
using boyermoore         = algo::boyermoore;
using boyermoorehorspool = algo::boyermoorehorspool;

} /** end namespace raft **/

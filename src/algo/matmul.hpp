/**
 * matmul.hpp — the streaming matrix-multiply application behind Figure 4.
 *
 * The paper's queue-sizing experiment ("Queue sizes for a matrix multiply
 * application, shown for an individual queue (all queues sized equally)",
 * Figure 4) needs a pipeline whose streams carry sizeable payloads so
 * buffer capacity translates into megabytes. The application:
 *
 *     tile_source ──work items──> tile_multiply ──result tiles──> tile_sink
 *
 * C = A · B is blocked into TILE×TILE tiles; a work item names (r, c) and
 * the multiply kernel computes the full dot-product band for that tile
 * against the shared read-only A and B (zero-copy: matrices never enter a
 * queue). Result tiles are fixed-size inline payloads (TILE² doubles ≈
 * 2 KiB), so a queue of N items is N·2 KiB of buffer — the swept quantity.
 *
 * Also provides a plain blocked multiply as the correctness oracle.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "core/kernel.hpp"

namespace raft::algo {

inline constexpr std::size_t mm_tile_dim = 16;

/** Dense row-major square matrix. */
struct matrix
{
    std::size_t n{ 0 };
    std::vector<double> a;

    explicit matrix( const std::size_t dim )
        : n( dim ), a( dim * dim, 0.0 )
    {
    }

    double &at( const std::size_t r, const std::size_t c )
    {
        return a[ r * n + c ];
    }
    double at( const std::size_t r, const std::size_t c ) const
    {
        return a[ r * n + c ];
    }

    /** Deterministic pseudo-random fill. */
    static matrix random( std::size_t dim, std::uint64_t seed );
};

/** Oracle: straightforward blocked multiply. */
matrix multiply_reference( const matrix &A, const matrix &B );

/** Work item: compute output tile (tile_r, tile_c). */
struct mm_work
{
    std::uint32_t tile_r{ 0 };
    std::uint32_t tile_c{ 0 };
};

/** Result payload: one TILE×TILE output tile, inline. */
struct mm_tile
{
    std::uint32_t tile_r{ 0 };
    std::uint32_t tile_c{ 0 };
    double v[ mm_tile_dim * mm_tile_dim ]{};
};

/** Source kernel: enumerates every output tile of an n×n product. */
class mm_source : public kernel
{
public:
    explicit mm_source( std::size_t n );
    kstatus run() override;

private:
    port &out_;
    std::size_t tiles_per_dim_;
    std::size_t tiles_;
    std::size_t next_{ 0 };
};

/** Worker kernel: computes one output tile per input work item. Clonable
 *  (tiles are independent), so raft::out links replicate it. */
class mm_multiply : public kernel
{
public:
    mm_multiply( const matrix *A, const matrix *B );
    kstatus run() override;
    bool clone_supported() const override { return true; }
    kernel *clone() const override
    {
        return new mm_multiply( A_, B_ );
    }

private:
    port &in_;
    port &out_;
    const matrix *A_;
    const matrix *B_;
};

/** Sink kernel: scatters result tiles into the caller's C matrix. */
class mm_sink : public kernel
{
public:
    explicit mm_sink( matrix *C );
    kstatus run() override;

private:
    port &in_;
    matrix *C_;
};

} /** end namespace raft::algo **/

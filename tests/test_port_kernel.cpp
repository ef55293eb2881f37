/**
 * Ports, port containers and the kernel base class: declaration rules,
 * type-checked access, binding lifecycle, kernel::make ownership plumbing
 * and the default pool-scheduler readiness predicate.
 */
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <core/kernel.hpp>
#include <core/ringbuffer.hpp>

namespace {

class two_in_one_out : public raft::kernel
{
public:
    two_in_one_out()
    {
        input.addPort<int>( "a", "b" );
        output.addPort<double>( "out" );
    }
    raft::kstatus run() override { return raft::stop; }
};

using accessor = std::pair<const char *, std::function<void( raft::port & )>>;

/** Every typed accessor of a port, each called with element type T. */
template <class T> std::vector<accessor> typed_accessors()
{
    return {
        { "push(const T &)",
          []( raft::port &p ) {
              const T v{};
              p.push<T>( v );
          } },
        { "push(T &&)", []( raft::port &p ) { p.push<T>( T{} ); } },
        { "pop()", []( raft::port &p ) { (void)p.pop<T>(); } },
        { "pop(T &)",
          []( raft::port &p ) {
              T v{};
              p.pop<T>( v );
          } },
        { "pop_s()", []( raft::port &p ) { (void)p.pop_s<T>(); } },
        { "peek", []( raft::port &p ) { (void)p.peek<T>(); } },
        { "allocate_s", []( raft::port &p ) { (void)p.allocate_s<T>(); } },
        { "allocate_range",
          []( raft::port &p ) { (void)p.allocate_range<T>( 2 ); } },
        { "pop_s(n)", []( raft::port &p ) { (void)p.pop_s<T>( 2 ); } },
        { "push_n",
          []( raft::port &p ) {
              T buf[ 2 ]{};
              p.push_n<T>( buf, 2 );
          } },
        { "pop_n",
          []( raft::port &p ) {
              T buf[ 2 ]{};
              (void)p.pop_n<T>( buf, 2 );
          } },
        { "try_push_n",
          []( raft::port &p ) {
              T buf[ 2 ]{};
              (void)p.try_push_n<T>( buf, 2 );
          } },
        { "try_pop_n",
          []( raft::port &p ) {
              T buf[ 2 ]{};
              (void)p.try_pop_n<T>( buf, 2 );
          } },
    };
}

bool contains( const std::string &what, const std::string &part )
{
    return what.find( part ) != std::string::npos;
}

} /** end anonymous namespace **/

TEST( port_container, variadic_addport_declares_all )
{
    two_in_one_out k;
    EXPECT_EQ( k.input.count(), 2u );
    EXPECT_EQ( k.output.count(), 1u );
    EXPECT_TRUE( k.input.has( "a" ) );
    EXPECT_TRUE( k.input.has( "b" ) );
    EXPECT_FALSE( k.input.has( "out" ) );
}

TEST( port_container, duplicate_name_throws )
{
    two_in_one_out k;
    EXPECT_THROW( k.input.addPort<int>( "a" ), raft::port_exception );
}

TEST( port_container, unknown_name_throws )
{
    two_in_one_out k;
    EXPECT_THROW( k.input[ "zzz" ], raft::port_exception );
}

TEST( port_container, unknown_name_is_named_in_the_exception )
{
    two_in_one_out k;
    try
    {
        (void)k.output[ "zzz" ];
        FAIL() << "lookup of an undeclared port did not throw";
    }
    catch( const raft::port_exception &e )
    {
        EXPECT_TRUE( contains( e.what(), "'zzz'" ) ) << e.what();
    }
}

TEST( port_container, iteration_in_declaration_order )
{
    two_in_one_out k;
    std::vector<std::string> names;
    for( auto &p : k.input )
    {
        names.push_back( p.name() );
    }
    ASSERT_EQ( names.size(), 2u );
    EXPECT_EQ( names[ 0 ], "a" );
    EXPECT_EQ( names[ 1 ], "b" );
}

TEST( port, access_before_binding_throws )
{
    two_in_one_out k;
    EXPECT_THROW( k.input[ "a" ].pop<int>(), raft::port_exception );
    EXPECT_THROW( k.input[ "a" ].raw(), raft::port_exception );
}

TEST( port, type_mismatch_throws )
{
    two_in_one_out k;
    raft::ring_buffer<int> q( 4 );
    k.input[ "a" ].bind( &q );
    q.push( 3 );
    EXPECT_THROW( k.input[ "a" ].pop<double>(),
                  raft::type_mismatch_exception );
    EXPECT_EQ( k.input[ "a" ].pop<int>(), 3 );
}

TEST( port, every_typed_accessor_rejects_a_wrong_type )
{
    two_in_one_out k;
    raft::ring_buffer<int> q( 4 );
    auto &p = k.input[ "a" ];
    p.bind( &q );
    q.push( 7 );
    q.push( 8 );
    for( auto &[ name, call ] : typed_accessors<double>() )
    {
        try
        {
            call( p );
            ADD_FAILURE() << name << " as double did not throw";
        }
        catch( const raft::type_mismatch_exception &e )
        {
            EXPECT_TRUE( contains( e.what(), "'a'" ) ) << name;
            EXPECT_TRUE( contains( e.what(), "int" ) ) << name;
            EXPECT_TRUE( contains( e.what(), "double" ) ) << name;
        }
        EXPECT_EQ( q.size(), 2u ) << name;
    }
    /** the queue, and both of its ends, work as before **/
    p.push<int>( 9 );
    EXPECT_EQ( p.pop<int>(), 7 );
    EXPECT_EQ( p.pop<int>(), 8 );
    EXPECT_EQ( p.pop<int>(), 9 );
    EXPECT_EQ( q.size(), 0u );
}

TEST( port, every_typed_accessor_rejects_an_unbound_port )
{
    two_in_one_out k;
    auto &p = k.input[ "b" ];
    /** unbound is reported first, whatever the type asked for **/
    auto calls = typed_accessors<int>();
    for( auto &c : typed_accessors<double>() )
    {
        calls.push_back( c );
    }
    for( auto &[ name, call ] : calls )
    {
        try
        {
            call( p );
            ADD_FAILURE() << name << " on an unbound port did not throw";
        }
        catch( const raft::port_exception &e )
        {
            EXPECT_TRUE( contains( e.what(), "'b'" ) ) << name;
            EXPECT_TRUE( contains( e.what(), "bound" ) ) << name;
        }
    }
    EXPECT_FALSE( p.bound() );
}

TEST( port, occupancy_views_through_binding )
{
    two_in_one_out k;
    raft::ring_buffer<int> q( 8 );
    k.input[ "a" ].bind( &q );
    q.push( 1 );
    q.push( 2 );
    EXPECT_EQ( k.input[ "a" ].size(), 2u );
    EXPECT_EQ( k.input[ "a" ].capacity(), 8u );
    EXPECT_EQ( k.input[ "a" ].space_avail(), 6u );
    k.input[ "a" ].recycle( 1 );
    EXPECT_EQ( k.input[ "a" ].size(), 1u );
    k.input[ "a" ].unbind();
    EXPECT_EQ( k.input[ "a" ].size(), 0u ); /** unbound: empty view **/
}

TEST( port, meta_captures_type_identity )
{
    two_in_one_out k;
    EXPECT_EQ( k.input[ "a" ].type(),
               std::type_index( typeid( int ) ) );
    EXPECT_TRUE( k.input[ "a" ].meta().arithmetic );
    EXPECT_EQ( k.input[ "a" ].meta().size, sizeof( int ) );
}

TEST( port, meta_fifo_factory_builds_matching_ring )
{
    two_in_one_out k;
    auto f = k.output[ "out" ].meta().make_fifo( 16 );
    EXPECT_TRUE( f->value_type() == typeid( double ) );
    EXPECT_EQ( f->capacity(), 16u );
}

TEST( kernel, ids_are_unique_and_names_informative )
{
    two_in_one_out a, b;
    EXPECT_NE( a.get_id(), b.get_id() );
    EXPECT_NE( a.name().find( "two_in_one_out" ), std::string::npos );
    a.set_name( "custom" );
    EXPECT_EQ( a.name(), "custom" );
}

TEST( kernel, make_marks_internal_allocation )
{
    auto *k = raft::kernel::make<two_in_one_out>();
    EXPECT_TRUE( k->internally_allocated() );
    delete k;
    two_in_one_out on_stack;
    EXPECT_FALSE( on_stack.internally_allocated() );
}

TEST( kernel, default_ready_accounts_inputs_and_outputs )
{
    two_in_one_out k;
    raft::ring_buffer<int> qa( 4 ), qb( 4 );
    raft::ring_buffer<double> qo( 4 );
    k.input[ "a" ].bind( &qa );
    k.input[ "b" ].bind( &qb );
    k.output[ "out" ].bind( &qo );

    EXPECT_FALSE( k.ready() ); /** both inputs empty **/
    qa.push( 1 );
    EXPECT_FALSE( k.ready() ); /** b still empty **/
    qb.push( 2 );
    EXPECT_TRUE( k.ready() );

    /** full output blocks readiness **/
    for( int i = 0; i < 4; ++i )
    {
        qo.push( 0.0 );
    }
    EXPECT_FALSE( k.ready() );
    double d = 0.0;
    qo.pop( d );
    EXPECT_TRUE( k.ready() );

    /** drained input counts as ready (run() will terminate) **/
    int v = 0;
    qb.pop( v );
    qb.close_write();
    EXPECT_TRUE( k.ready() );
}

TEST( kernel, clone_default_unsupported )
{
    two_in_one_out k;
    EXPECT_FALSE( k.clone_supported() );
    EXPECT_EQ( k.clone(), nullptr );
}

TEST( signal_bus, raise_and_sticky_term )
{
    raft::async_signal_bus bus;
    EXPECT_EQ( bus.current(), raft::none );
    bus.raise( raft::eos );
    EXPECT_EQ( bus.current(), raft::eos );
    bus.raise( raft::term );
    EXPECT_TRUE( bus.termination_requested() );
    bus.raise( raft::none ); /** term is sticky **/
    EXPECT_TRUE( bus.termination_requested() );
    bus.reset();
    EXPECT_EQ( bus.current(), raft::none );
}

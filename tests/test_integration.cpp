// Integration tests: full paper scenarios across multiple subsystems.
#include <gtest/gtest.h>

#include "apps/ml_inference.hpp"
#include "controller/controller.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "core/transponder.hpp"
#include "digital/dnn.hpp"
#include "network/workload.hpp"
#include "photonics/fiber.hpp"

namespace onfiber {
namespace {

using core::compute_mode;
using core::engine_config;
using core::onfiber_runtime;

/// The paper's Figure-1 scenario: a laptop flow needing packet
/// classification (P2 at site B) and a phone flow needing image
/// recognition (DNN at site C), both A -> D, running concurrently.
TEST(Integration, Figure1TwoApplications) {
  net::simulator sim;
  onfiber_runtime rt(sim, net::make_figure1_topology());

  // Site B: packet classifier (two traffic classes by first payload byte).
  core::match_task classifier;
  std::vector<std::uint8_t> class_a{0x11};
  std::vector<std::uint8_t> class_b{0x22};
  classifier.patterns.push_back(
      phot::to_ternary(phot::bytes_to_bits(class_a)));
  classifier.patterns.push_back(
      phot::to_ternary(phot::bytes_to_bits(class_b)));
  rt.deploy_engine(1, {}, 101).configure_match(classifier);

  // Site C: image recognition (DNN on the synthetic dataset).
  const digital::dataset data =
      digital::make_synthetic_dataset(16, 4, 12, 0.08, 7);
  const digital::dnn_model model =
      digital::train_mlp(data, {12}, 40, 0.08, 11,
                         digital::activation_kind::photonic_sin2, 2.0);
  rt.deploy_engine(2, {}, 102).configure_dnn(apps::to_photonic_task(model));
  rt.install_compute_routes_via_nearest_site();

  const net::ipv4 src = rt.fabric().topo().node_at(0).address;
  const net::ipv4 dst = rt.fabric().topo().node_at(3).address;

  // Laptop: classify a class-B packet.
  rt.submit(core::make_match_request(src, dst, class_b, 1), 0);
  // Phone: recognize sample 0.
  rt.submit(core::make_dnn_request(src, dst, data.samples[0],
                                   model.output_dim(), 2),
            0);
  sim.run();

  ASSERT_EQ(rt.deliveries().size(), 2u);
  EXPECT_EQ(rt.stats().computed, 2u);
  EXPECT_EQ(rt.stats().uncomputed_delivered, 0u);

  for (const auto& d : rt.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    ASSERT_TRUE(h.has_value());
    if (h->task_id == 1) {
      EXPECT_EQ(core::read_match_result(d.pkt).value(), 1);  // class B
    } else {
      const auto r = core::read_dnn_result(d.pkt);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->predicted_class, data.labels[0]);
    }
  }
}

/// Controller-planned allocation drives the data plane: solve, install
/// the two-field routes, and verify packets reach the planned sites.
TEST(Integration, ControllerDrivesRuntimeRoutes) {
  net::topology topo = net::make_uswan_topology();
  net::simulator sim;
  onfiber_runtime rt(sim, topo);

  core::gemv_task task;
  task.weights = phot::matrix(1, 4);
  for (std::size_t c = 0; c < 4; ++c) task.weights.at(0, c) = 0.25;

  // Transponders at Denver(4) and Chicago(7).
  rt.deploy_engine(4, {}, 201).configure_gemv(task);
  rt.deploy_engine(7, {}, 202).configure_gemv(task);

  ctrl::allocation_problem p;
  p.topo = &topo;
  p.transponders = {
      {0, 4, {proto::primitive_id::p1_dot_product}, 1e6},
      {1, 7, {proto::primitive_id::p1_dot_product}, 1e6},
  };
  ctrl::compute_demand d;
  d.id = 0;
  d.src = 0;   // Seattle
  d.dst = 10;  // New York
  d.chain = {proto::primitive_id::p1_dot_product};
  p.demands = {d};

  const ctrl::allocation_result alloc = ctrl::solve_greedy(p);
  ASSERT_TRUE(alloc.assignments[0].satisfied);
  for (const auto& route : ctrl::routes_for_allocation(p, alloc)) {
    rt.set_compute_route(route.at, route.dst_prefix, route.primitive,
                         route.next_hop);
  }

  const std::vector<double> x{0.4, 0.4, 0.4, 0.4};
  rt.submit(core::make_gemv_request(topo.node_at(0).address,
                                    topo.node_at(10).address, x, 1),
            0);
  sim.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_EQ(rt.stats().computed, 1u);
  const auto result = core::read_gemv_result(rt.deliveries()[0].pkt);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR((*result)[0], 0.4, 0.15);
}

/// Failure injection: the allocated site dies; the controller re-plans
/// onto the surviving transponder and traffic flows again.
TEST(Integration, TransponderFailureReallocation) {
  net::topology topo = net::make_uswan_topology();

  ctrl::allocation_problem p;
  p.topo = &topo;
  p.transponders = {
      {0, 4, {proto::primitive_id::p2_pattern_match}, 1e6},
      {1, 7, {proto::primitive_id::p2_pattern_match}, 1e6},
  };
  ctrl::compute_demand d;
  d.id = 0;
  d.src = 0;
  d.dst = 10;
  d.chain = {proto::primitive_id::p2_pattern_match};
  p.demands = {d};

  const ctrl::allocation_result before = ctrl::solve_greedy(p);
  ASSERT_TRUE(before.assignments[0].satisfied);
  const std::uint32_t original = before.assignments[0].transponder_ids[0];

  // Kill the allocated transponder: zero capacity.
  ctrl::allocation_problem degraded = p;
  degraded.transponders[original].capacity_ops_s = 0.0;
  const ctrl::allocation_result after = ctrl::solve_greedy(degraded);
  ASSERT_TRUE(after.assignments[0].satisfied);
  EXPECT_NE(after.assignments[0].transponder_ids[0], original);

  // The reconfiguration plan must install the primitive on the survivor.
  const auto ops = ctrl::plan_reconfiguration(degraded, before, after);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].transponder_id, after.assignments[0].transponder_ids[0]);
}

/// Corrupted compute headers in flight are dropped, not misrouted.
TEST(Integration, CorruptedHeaderDropped) {
  net::simulator sim;
  onfiber_runtime rt(sim, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 301);
  rt.install_compute_routes_via_nearest_site();

  const std::vector<double> x(4, 0.5);
  net::packet pkt =
      core::make_gemv_request(rt.fabric().topo().node_at(0).address,
                              rt.fabric().topo().node_at(3).address, x, 1);
  pkt.payload[5] ^= 0xff;  // corrupt the header body
  rt.submit(pkt, 0);
  sim.run();
  EXPECT_EQ(rt.deliveries().size(), 0u);
  EXPECT_EQ(rt.stats().malformed_dropped, 1u);
}

/// Physical layer end to end: compute packet serialized by a commodity
/// transponder, carried over an amplified fiber span, received intact,
/// then computed on by an engine.
TEST(Integration, PhysicalLayerCarriesComputePacket) {
  core::commodity_transponder tx({}, 401);
  const std::vector<double> x{0.3, 0.6, 0.9, 0.1};
  net::packet pkt = core::make_gemv_request(net::ipv4(10, 0, 0, 2),
                                            net::ipv4(10, 3, 0, 2), x, 1);
  const auto wire_in = pkt.payload;

  const phot::waveform wave = tx.transmit(wire_in);
  phot::fiber_config fc;
  fc.length_km = 80.0;
  fc.amplified = true;
  fc.symbol_rate_hz = tx.config().symbol_rate_hz;
  phot::fiber_span span(fc, 402);
  const core::receive_report rx = tx.receive(span.propagate(wave), wire_in);
  ASSERT_EQ(rx.bytes, wire_in);  // link is clean
  EXPECT_EQ(rx.symbol_errors, 0u);

  net::packet received = pkt;
  received.payload = rx.bytes;
  core::photonic_engine engine({}, 403);
  core::gemv_task task;
  task.weights = phot::matrix(1, 4);
  for (std::size_t c = 0; c < 4; ++c) task.weights.at(0, c) = 0.5;
  engine.configure_gemv(task);
  ASSERT_TRUE(engine.process(received).computed);
  const auto result = core::read_gemv_result(received);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR((*result)[0], 0.5 * (0.3 + 0.6 + 0.9 + 0.1), 0.15);
}

/// Heavy load: many concurrent compute packets through one serial engine
/// keep FIFO order and all complete.
TEST(Integration, EngineQueueUnderLoad) {
  net::simulator sim;
  onfiber_runtime rt(sim, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(2, 32);
  for (double& w : task.weights.data) w = 0.2;
  rt.deploy_engine(1, {}, 501).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const std::vector<double> x(32, 0.5);
  constexpr int packets = 20;
  for (int i = 0; i < packets; ++i) {
    rt.submit(core::make_gemv_request(
                  rt.fabric().topo().node_at(0).address,
                  rt.fabric().topo().node_at(3).address, x, 2,
                  static_cast<std::uint32_t>(i)),
              0);
  }
  sim.run();
  ASSERT_EQ(rt.deliveries().size(), static_cast<std::size_t>(packets));
  EXPECT_EQ(rt.stats().computed, static_cast<std::uint64_t>(packets));
  // FIFO through the serial engine: deliveries in task order.
  for (std::size_t i = 1; i < rt.deliveries().size(); ++i) {
    const auto prev = proto::peek_compute_header(rt.deliveries()[i - 1].pkt);
    const auto cur = proto::peek_compute_header(rt.deliveries()[i].pkt);
    EXPECT_LT(prev->task_id, cur->task_id);
    EXPECT_LE(rt.deliveries()[i - 1].time_s, rt.deliveries()[i].time_s);
  }
}

/// Mixed compute + bulk background traffic share the fabric.
TEST(Integration, ComputeAndPlainTrafficCoexist) {
  net::simulator sim;
  onfiber_runtime rt(sim, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(1, 8);
  for (double& w : task.weights.data) w = 0.1;
  rt.deploy_engine(1, {}, 601).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const net::ipv4 src = rt.fabric().topo().node_at(0).address;
  const net::ipv4 dst = rt.fabric().topo().node_at(3).address;

  // Background: ~100 plain single-packet flows (Poisson, 1e6/s for 100 us).
  net::flow_class plain;
  plain.flow_rate_fps = 1e6;
  plain.mice_fraction = 1.0;
  plain.mice = {1.3, 64.0, 1400.0};
  plain.mtu_bytes = 1400;
  net::workload_config wc;
  wc.tenants = {plain};
  wc.seed = 602;
  net::workload_plane plane(rt.fabric(), wc);
  plane.add_injector({0, dst, 0, {}});
  plane.start(100e-6);
  // Foreground: 5 compute packets.
  const std::vector<double> x(8, 0.5);
  for (int i = 0; i < 5; ++i) {
    rt.submit(core::make_gemv_request(src, dst, x, 1), 0);
  }
  sim.run();
  const std::uint64_t background = plane.stats().packets;
  EXPECT_GT(background, 50u);
  EXPECT_EQ(plane.stats().flows, background);  // one packet per flow
  EXPECT_EQ(rt.deliveries().size(), background + 5);
  EXPECT_EQ(rt.stats().computed, 5u);
  EXPECT_EQ(rt.fabric().dropped(), 0u);
}

/// Controller-planned two-stage chain: the controller places P1 at one
/// site and P3 at another, emits per-stage routes, and the data plane
/// executes the chain across both — §3's task DAG meeting §5's
/// distributed execution.
TEST(Integration, ControllerPlannedChainAcrossSites) {
  net::topology topo = net::make_uswan_topology();
  net::simulator sim;
  onfiber_runtime rt(sim, topo);

  core::gemv_task task;
  task.weights = phot::matrix(4, 8);
  for (double& w : task.weights.data) w = 0.4;
  task.relu_output = true;
  // Denver(4): P1 engine; Chicago(7): plain engine (P3 built-in).
  rt.deploy_engine(4, {}, 801).configure_gemv(task);
  rt.deploy_engine(7, {}, 802);

  ctrl::allocation_problem p;
  p.topo = &topo;
  p.transponders = {
      {0, 4, {proto::primitive_id::p1_dot_product}, 1e6},
      {1, 7, {proto::primitive_id::p3_nonlinear}, 1e6},
  };
  ctrl::compute_demand d;
  d.id = 0;
  d.src = 0;   // Seattle
  d.dst = 10;  // New York
  d.chain = {proto::primitive_id::p1_dot_product,
             proto::primitive_id::p3_nonlinear};
  p.demands = {d};

  const auto alloc = ctrl::solve_greedy(p);
  ASSERT_TRUE(alloc.assignments[0].satisfied);
  ASSERT_EQ(alloc.assignments[0].transponder_ids.size(), 2u);
  for (const auto& route : ctrl::routes_for_allocation(p, alloc)) {
    rt.set_compute_route(route.at, route.dst_prefix, route.primitive,
                         route.next_hop);
  }

  const std::vector<double> x(8, 0.5);
  const std::vector<proto::primitive_id> stages = d.chain;
  rt.submit(core::make_chain_request(topo.node_at(0).address,
                                     topo.node_at(10).address, stages, x,
                                     /*result_capacity=*/8),
            0);
  sim.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  const auto h = proto::peek_compute_header(rt.deliveries()[0].pkt);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->has_result());
  EXPECT_EQ(h->hops, 2);
  EXPECT_EQ(rt.stats().computed, 2u);
}

/// Robustness: a mis-programmed circular compute route must be broken by
/// TTL, not loop forever.
TEST(Integration, CircularComputeRoutesBoundedByTtl) {
  net::simulator sim;
  onfiber_runtime rt(sim, net::make_figure1_topology());
  // No capable site anywhere; bogus routes bounce A <-> B for P1 packets
  // destined to D.
  const net::prefix dst_prefix =
      rt.fabric().topo().node_at(3).attached_prefix;
  rt.set_compute_route(0, dst_prefix, proto::primitive_id::p1_dot_product, 1);
  rt.set_compute_route(1, dst_prefix, proto::primitive_id::p1_dot_product, 0);

  const std::vector<double> x(4, 0.5);
  rt.submit(core::make_gemv_request(rt.fabric().topo().node_at(0).address,
                                    rt.fabric().topo().node_at(3).address, x,
                                    1),
            0);
  const auto executed = sim.run();
  EXPECT_LT(executed, 1000u);  // terminated, not an infinite loop
  EXPECT_EQ(rt.deliveries().size(), 0u);
  EXPECT_EQ(rt.fabric().dropped(), 1u);  // TTL kill
}

/// OEO-per-hop mode also completes end to end (the ablation baseline is a
/// working system, not a strawman).
TEST(Integration, OeoModeEndToEnd) {
  net::simulator sim;
  onfiber_runtime rt(sim, net::make_figure1_topology());
  engine_config cfg;
  cfg.mode = compute_mode::oeo_per_hop;
  core::gemv_task task;
  task.weights = phot::matrix(1, 8);
  for (double& w : task.weights.data) w = 0.25;
  rt.deploy_engine(1, cfg, 701).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const std::vector<double> x(8, 0.4);
  rt.submit(core::make_gemv_request(rt.fabric().topo().node_at(0).address,
                                    rt.fabric().topo().node_at(3).address, x,
                                    1),
            0);
  sim.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  const auto result = core::read_gemv_result(rt.deliveries()[0].pkt);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR((*result)[0], 0.25 * 8 * 0.4, 0.2);
}

}  // namespace
}  // namespace onfiber

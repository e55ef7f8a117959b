// Tests for the end-to-end reliability layer: ack/retry/backoff task
// tracking in the runtime, scripted link-flap fault injection on the
// fabric, controller-driven failover, the event-simulator runaway guard,
// and bit-reproducibility of the recovery trace.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "controller/controller.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/fabric.hpp"
#include "network/topology.hpp"

namespace onfiber {
namespace {

// Figure-1 link indices (see make_figure1_topology): 0 A-B, 1 A-C,
// 2 B-D, 3 C-D, 4 A-D (direct, long).
constexpr std::size_t link_ab = 0;
constexpr std::size_t link_bd = 2;
constexpr std::size_t link_cd = 3;
constexpr std::size_t link_ad = 4;

core::gemv_task unit_gemv(std::size_t cols) {
  core::gemv_task task;
  task.weights = phot::matrix(1, cols);
  for (double& w : task.weights.data) w = 0.5;
  return task;
}

net::packet request_a_to_d(const core::onfiber_runtime& rt,
                           std::uint32_t task_id) {
  const std::vector<double> x(4, 0.5);
  return core::make_gemv_request(rt.fabric().topo().node_at(0).address,
                                 rt.fabric().topo().node_at(3).address, x, 1,
                                 task_id);
}

// ------------------------------------------------- event-sim run guard

TEST(EventSimGuard, RunCapReportsRunawayInsteadOfHanging) {
  // A retry timer that unconditionally self-reschedules would spin a
  // plain run() forever; the capped run() returns and flags the overrun.
  net::simulator sim;
  std::function<void()> tick = [&] { sim.schedule(1e-3, tick); };
  sim.schedule(0.0, tick);
  EXPECT_EQ(sim.run(1000), 1000u);
  EXPECT_TRUE(sim.overran());
  EXPECT_FALSE(sim.empty());
}

TEST(EventSimGuard, NormalDrainDoesNotFlagOverrun) {
  net::simulator sim;
  int fired = 0;
  sim.schedule(0.0, [&] { ++fired; });
  sim.schedule(1.0, [&] { ++fired; });
  EXPECT_EQ(sim.run(1000), 2u);
  EXPECT_FALSE(sim.overran());
  EXPECT_EQ(fired, 2);
}

// ------------------------------------------------- flap schedule (fabric)

TEST(FlapSchedule, FailsRestoresAndReconverges) {
  net::simulator sim;
  net::wan_fabric fabric(sim, net::make_linear_topology(2, 100.0));
  fabric.install_shortest_path_routes();

  const net::wan_fabric::link_flap flap{0, 0.010, 0.020};
  fabric.schedule_flaps({&flap, 1}, 0.004);

  const auto send_at = [&](double t) {
    sim.schedule_at(t, [&] {
      net::packet pkt;
      pkt.src = fabric.topo().node_at(0).address;
      pkt.dst = fabric.topo().node_at(1).address;
      fabric.send(pkt, 0);
    });
  };
  send_at(0.000);  // healthy: delivered
  send_at(0.015);  // link down: black-holed
  send_at(0.030);  // restored: delivered
  sim.run();

  EXPECT_TRUE(fabric.link_is_up(0));
  EXPECT_EQ(fabric.reconvergences(), 2u);
  EXPECT_EQ(fabric.delivered(), 2u);
  EXPECT_EQ(fabric.dropped(), 1u);
}

TEST(FlapSchedule, RejectsBadSchedules) {
  net::simulator sim;
  net::wan_fabric fabric(sim, net::make_linear_topology(2, 100.0));
  const net::wan_fabric::link_flap bad_link{9, 0.0, 1.0};
  EXPECT_THROW(fabric.schedule_flaps({&bad_link, 1}, 0.0),
               std::out_of_range);
  const net::wan_fabric::link_flap backwards{0, 1.0, 0.5};
  EXPECT_THROW(fabric.schedule_flaps({&backwards, 1}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(fabric.schedule_flaps({}, -1.0), std::invalid_argument);
}

// -------------------------------------------------- ack/retry lifecycle

TEST(Reliability, HealthyPathAcksWithoutRetries) {
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 61).configure_gemv(unit_gemv(4));
  rt.install_compute_routes_via_nearest_site();

  for (std::uint32_t id = 0; id < 5; ++id) {
    rt.submit_reliable(request_a_to_d(rt, id), 0);
  }
  sim.run();

  const auto& s = rt.reliability();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.acks_sent, 5u);
  EXPECT_EQ(rt.tasks_in_flight(), 0u);
  EXPECT_GT(s.mean_completion_s(), 0.0);
  EXPECT_GE(s.max_completion_s, s.mean_completion_s());
  // Acks are control plane: only the 5 result deliveries are recorded.
  EXPECT_EQ(rt.deliveries().size(), 5u);
  for (const auto& d : rt.deliveries()) {
    EXPECT_TRUE(core::read_gemv_result(d.pkt).has_value());
  }
}

TEST(Reliability, DropAndRetryRecoversAcrossFlap) {
  // A-B flaps while the task is in flight: the submission and the first
  // retry are black-holed (stale compute route into the dead link), the
  // backoff carries past the restore, and the second retry completes.
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 62).configure_gemv(unit_gemv(4));
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flap{link_ab, 0.0, 0.030};
  rt.fabric().schedule_flaps({&flap, 1}, 0.004);

  core::onfiber_runtime::reliability_config cfg;
  cfg.initial_rto_s = 0.020;
  cfg.backoff = 2.0;
  rt.enable_reliability(cfg);
  rt.submit_reliable(request_a_to_d(rt, 7), 0);
  sim.run();

  const auto& s = rt.reliability();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.retransmits, 2u);  // t=0.02 (still down), t=0.06 (recovers)
  EXPECT_EQ(rt.tasks_in_flight(), 0u);
  EXPECT_EQ(rt.stats().computed, 1u);
}

TEST(Reliability, FailoverReroutesToAlternateSite) {
  // Site B becomes unreachable (both its links die); after the
  // configured number of timeouts the controller picks C and the pinned
  // retry completes there.
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 63).configure_gemv(unit_gemv(4));
  rt.deploy_engine(2, {}, 64).configure_gemv(unit_gemv(4));
  rt.install_compute_routes_via_nearest_site();

  rt.fabric().fail_link(link_ab);
  rt.fabric().fail_link(link_bd);
  rt.fabric().install_shortest_path_routes();  // plain plane reconverged

  core::onfiber_runtime::reliability_config cfg;
  cfg.initial_rto_s = 0.020;
  cfg.backoff = 2.0;
  cfg.failover_after = 1;
  rt.enable_reliability(cfg);
  rt.submit_reliable(request_a_to_d(rt, 9), 0);
  sim.run();

  const auto& s = rt.reliability();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_GT(rt.site_busy_s(2), 0.0);          // served by C
  EXPECT_DOUBLE_EQ(rt.site_busy_s(1), 0.0);   // B never reached
  // The trace records the failover decision with the chosen site.
  bool saw_failover = false;
  for (const auto& ev : rt.recovery_trace()) {
    if (ev.what == core::onfiber_runtime::reliability_event::kind::failover) {
      saw_failover = true;
      EXPECT_EQ(ev.site, 2u);
    }
  }
  EXPECT_TRUE(saw_failover);
}

TEST(Reliability, RetryCapYieldsTerminalFailure) {
  // D is fully partitioned: every retry dies, and after max_retries the
  // task fails terminally through the callback.
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 65).configure_gemv(unit_gemv(4));
  rt.install_compute_routes_via_nearest_site();
  rt.fabric().fail_link(link_bd);
  rt.fabric().fail_link(link_cd);
  rt.fabric().fail_link(link_ad);
  rt.fabric().install_shortest_path_routes();

  core::onfiber_runtime::reliability_config cfg;
  cfg.initial_rto_s = 0.010;
  cfg.backoff = 1.5;
  cfg.max_retries = 2;
  rt.enable_reliability(cfg);

  std::vector<std::uint32_t> failed_ids;
  rt.set_task_failure_callback(
      [&](std::uint32_t id) { failed_ids.push_back(id); });
  rt.submit_reliable(request_a_to_d(rt, 21), 0);
  sim.run();

  const auto& s = rt.reliability();
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.retransmits, 2u);
  EXPECT_EQ(rt.tasks_in_flight(), 0u);
  ASSERT_EQ(failed_ids.size(), 1u);
  EXPECT_EQ(failed_ids[0], 21u);
}

TEST(Reliability, RejectsBadSubmissions) {
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 66).configure_gemv(unit_gemv(4));
  rt.install_compute_routes_via_nearest_site();

  net::packet plain;  // no compute header
  EXPECT_THROW(rt.submit_reliable(std::move(plain), 0),
               std::invalid_argument);
  EXPECT_THROW(rt.submit_reliable(request_a_to_d(rt, 1), 99),
               std::out_of_range);
  rt.submit_reliable(request_a_to_d(rt, 1), 0);
  // In-flight task_id collision is rejected.
  EXPECT_THROW(rt.submit_reliable(request_a_to_d(rt, 1), 0),
               std::invalid_argument);
  core::onfiber_runtime::reliability_config bad;
  bad.backoff = 0.5;
  EXPECT_THROW(rt.enable_reliability(bad), std::invalid_argument);
}

TEST(Reliability, DuplicateDeliveryAfterAckIsCounted) {
  // The rto is shorter than the submit->ack round trip, so a retransmit
  // goes out while the first copy's ack is still in flight. The ack
  // lands first and erases the pending entry; the retransmit's delivery
  // arrives afterwards and must still be counted as a duplicate (it used
  // to vanish once the table entry was gone).
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 67).configure_gemv(unit_gemv(4));
  rt.install_compute_routes_via_nearest_site();

  core::onfiber_runtime::reliability_config cfg;
  cfg.initial_rto_s = 0.006;  // > one-way (~4.3 ms), < round trip (~8.6 ms)
  rt.enable_reliability(cfg);
  rt.submit_reliable(request_a_to_d(rt, 3), 0);
  sim.run();

  const auto& s = rt.reliability();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.duplicate_deliveries, 1u);
  EXPECT_EQ(rt.tasks_in_flight(), 0u);
}

TEST(Reliability, ReusedTaskIdDoesNotInheritDuplicateHistory) {
  // Complete task 5, then legally reuse its id for a task that fails
  // terminally before its packet arrives. The late first delivery of the
  // *new* task must not be mistaken for a duplicate of the old one.
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 68).configure_gemv(unit_gemv(4));
  rt.install_compute_routes_via_nearest_site();

  rt.enable_reliability();
  rt.submit_reliable(request_a_to_d(rt, 5), 0);
  sim.run();
  ASSERT_EQ(rt.reliability().completed, 1u);
  ASSERT_EQ(rt.reliability().duplicate_deliveries, 0u);

  core::onfiber_runtime::reliability_config cfg;
  cfg.initial_rto_s = 0.001;  // fires before the ~4.3 ms delivery
  cfg.max_retries = 0;        // first timeout is terminal
  rt.enable_reliability(cfg);
  rt.submit_reliable(request_a_to_d(rt, 5), 0);
  sim.run();

  const auto& s = rt.reliability();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.duplicate_deliveries, 0u);
}

// ------------------------------------------------------ failover planner

TEST(FailoverPlanner, PicksBestAlternateOverLiveLinks) {
  const net::topology topo = net::make_figure1_topology();
  const std::vector<net::node_id> capable{1, 2};
  net::spf_engine all_up(topo);
  // All links healthy, nothing excluded: ties resolve to the first
  // capable site (B), the same choice the nearest-site routes make.
  const auto primary =
      ctrl::plan_failover_site(all_up, capable, net::invalid_node, 0, 3);
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->site, 1u);
  // Excluding B yields C.
  const auto alt = ctrl::plan_failover_site(all_up, capable, 1, 0, 3);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->site, 2u);
  EXPECT_GT(alt->via_delay_s, 0.0);
  // With C's links dead too, no plan exists.
  std::vector<bool> up(topo.links().size(), true);
  up[1] = false;  // A-C
  up[3] = false;  // C-D
  net::spf_engine live(topo, &up);
  EXPECT_FALSE(ctrl::plan_failover_site(live, capable, 1, 0, 3).has_value());
}

// ----------------------------------------------------------- determinism

struct trace_run {
  std::vector<core::onfiber_runtime::reliability_event> trace;
  std::uint64_t completed = 0;
  std::uint64_t retransmits = 0;
};

trace_run run_flap_scenario(std::size_t threads) {
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  auto& eng_b = rt.deploy_engine(1, {}, 71);
  eng_b.configure_gemv(unit_gemv(4));
  eng_b.set_threads(threads);
  auto& eng_c = rt.deploy_engine(2, {}, 72);
  eng_c.configure_gemv(unit_gemv(4));
  eng_c.set_threads(threads);
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flaps[] = {
      {link_ab, 0.000, 0.050},
      {link_bd, 0.010, 0.060},
  };
  rt.fabric().schedule_flaps(flaps, 0.004, /*jitter_seed=*/5,
                             /*reconvergence_jitter_s=*/0.002);

  core::onfiber_runtime::reliability_config cfg;
  cfg.initial_rto_s = 0.020;
  cfg.backoff = 2.0;
  cfg.failover_after = 2;
  rt.enable_reliability(cfg);
  for (std::uint32_t id = 0; id < 12; ++id) {
    rt.submit_reliable(request_a_to_d(rt, id), 0);
  }
  sim.run();
  return trace_run{rt.recovery_trace(), rt.reliability().completed,
                   rt.reliability().retransmits};
}

TEST(Reliability, RecoveryTraceBitIdenticalAcrossRunsAndThreads) {
  const trace_run a = run_flap_scenario(1);
  const trace_run b = run_flap_scenario(1);
  const trace_run c = run_flap_scenario(8);

  EXPECT_GT(a.retransmits, 0u);  // the scenario actually exercises retry
  EXPECT_EQ(a.completed, 12u);   // ... and everything recovers

  for (const trace_run* other : {&b, &c}) {
    ASSERT_EQ(a.trace.size(), other->trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      EXPECT_EQ(static_cast<int>(a.trace[i].what),
                static_cast<int>(other->trace[i].what))
          << "event " << i;
      EXPECT_EQ(a.trace[i].task_id, other->trace[i].task_id) << i;
      // Bit-identical times, not approximately equal.
      EXPECT_EQ(a.trace[i].time_s, other->trace[i].time_s) << i;
      EXPECT_EQ(a.trace[i].site, other->trace[i].site) << i;
    }
    EXPECT_EQ(a.completed, other->completed);
    EXPECT_EQ(a.retransmits, other->retransmits);
  }
}

}  // namespace
}  // namespace onfiber

#include <gtest/gtest.h>

#include "dataplane/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sharded.h"
#include "southbound/channel.h"
#include "southbound/switch_agent.h"

namespace softmow::southbound {
namespace {

/// Current value of one labelled series of the process registry; tests read
/// deltas, since every channel in the process feeds the same series.
std::uint64_t series(const char* name, const char* key, const char* value) {
  return obs::default_registry().counter(name, {{key, value}})->value();
}

std::uint64_t messages(const char* direction) {
  return series("southbound_messages_total", "direction", direction);
}

std::uint64_t batches(const char* direction) {
  return series("southbound_batches_total", "direction", direction);
}

std::uint64_t dropped(const char* reason) {
  return series("southbound_dropped_total", "reason", reason);
}

std::vector<Message> echo_unit(std::uint64_t first, std::uint64_t n) {
  std::vector<Message> unit;
  for (std::uint64_t x = first; x < first + n; ++x) unit.push_back(EchoRequest{Xid{x}});
  return unit;
}

std::uint64_t xid_of(const Message& m) { return std::get<EchoRequest>(m).xid.value; }

TEST(Channel, DeliversBothDirections) {
  Channel ch;
  std::vector<std::string> log;
  ch.bind_controller([&](const Message& m) { log.push_back(std::string("c:") + message_name(m)); });
  ch.bind_device([&](const Message& m) { log.push_back(std::string("d:") + message_name(m)); });
  const std::uint64_t down = messages("to_device"), up = messages("to_controller");
  ch.send_to_device({EchoRequest{Xid{1}}});
  ch.send_to_controller({EchoReply{Xid{1}}});
  EXPECT_EQ(log, (std::vector<std::string>{"d:echo-request", "c:echo-reply"}));
  EXPECT_EQ(messages("to_device") - down, 1u);
  EXPECT_EQ(messages("to_controller") - up, 1u);
}

TEST(Channel, ReentrantSendsAreFlattenedFifo) {
  Channel ch;
  std::vector<int> order;
  ch.bind_device([&](const Message&) {
    order.push_back(1);
    // Handler sends back; must not recurse into nested delivery.
    ch.send_to_controller({EchoReply{Xid{1}}});
    order.push_back(2);
  });
  ch.bind_controller([&](const Message&) { order.push_back(3); });
  ch.send_to_device({EchoRequest{Xid{1}}});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, UnboundHandlerDropsSilently) {
  Channel ch;
  const std::uint64_t sent = messages("to_device");
  const std::uint64_t lost = dropped("no_handler");
  ch.send_to_device({EchoRequest{Xid{1}}});  // no device handler: dropped
  EXPECT_EQ(messages("to_device") - sent, 1u);
  EXPECT_EQ(dropped("no_handler") - lost, 1u);
}

TEST(Channel, DisconnectStopsDelivery) {
  Channel ch;
  int delivered = 0;
  ch.bind_device([&](const Message&) { ++delivered; });
  ch.disconnect();
  ch.send_to_device({EchoRequest{Xid{1}}});
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(ch.connected());
}

TEST(Channel, SharedCounterTalliesDirections) {
  // The registry series are shared by every channel of the process.
  Channel a, b;
  a.bind_device([](const Message&) {});
  b.bind_controller([](const Message&) {});
  const std::uint64_t down = messages("to_device"), up = messages("to_controller");
  const std::uint64_t down_batches = batches("to_device");
  const std::uint64_t up_batches = batches("to_controller");
  a.send_to_device({EchoRequest{Xid{1}}});
  b.send_to_controller({EchoReply{Xid{1}}});
  EXPECT_EQ(messages("to_device") - down, 1u);
  EXPECT_EQ(messages("to_controller") - up, 1u);
  // A single-message send is a delivery unit of one.
  EXPECT_EQ(batches("to_device") - down_batches, 1u);
  EXPECT_EQ(batches("to_controller") - up_batches, 1u);
}

TEST(Channel, PumpRestoresTheSenderContextOfQueuedMessages) {
  Channel ch;
  obs::Tracer& tracer = obs::default_tracer();
  const obs::TraceContext outer{11, 12}, inner{21, 22};
  obs::TraceContext seen;
  ch.bind_device([&](const Message&) {
    // Queued behind this delivery; delivered after `inner` is popped.
    obs::Tracer::ScopedContext scoped(tracer, inner);
    ch.send_to_controller({EchoReply{Xid{1}}});
  });
  ch.bind_controller([&](const Message&) { seen = tracer.current(); });
  obs::Tracer::ScopedContext scoped(tracer, outer);
  ch.send_to_device({EchoRequest{Xid{1}}});
  EXPECT_EQ(seen, inner);
}

TEST(Channel, UnitCountsMessagesAndOneBatchPerDirection) {
  Channel ch;
  std::vector<std::uint64_t> at_device, at_controller;
  ch.bind_device([&](const Message& m) { at_device.push_back(xid_of(m)); });
  ch.bind_controller([&](const Message& m) { at_controller.push_back(xid_of(m)); });
  const std::uint64_t down = messages("to_device"), up = messages("to_controller");
  const std::uint64_t down_batches = batches("to_device");
  const std::uint64_t up_batches = batches("to_controller");

  ch.send_to_device(echo_unit(1, 3));
  EXPECT_EQ(messages("to_device") - down, 3u);
  EXPECT_EQ(batches("to_device") - down_batches, 1u);
  ch.send_to_controller(echo_unit(4, 3));
  EXPECT_EQ(messages("to_controller") - up, 3u);
  EXPECT_EQ(batches("to_controller") - up_batches, 1u);
  EXPECT_EQ(at_device, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(at_controller, (std::vector<std::uint64_t>{4, 5, 6}));

  // An empty unit is not a batch.
  ch.send_to_device({});
  EXPECT_EQ(messages("to_device") - down, 3u);
  EXPECT_EQ(batches("to_device") - down_batches, 1u);
}

TEST(Channel, DisconnectCountsDroppedMessages) {
  Channel ch;
  ch.bind_controller([](const Message&) {});
  ch.bind_device([&](const Message&) {
    // Queued behind this delivery, then lost when the channel goes down.
    ch.send_to_controller(echo_unit(10, 2));
    ch.disconnect();
  });
  const std::uint64_t lost = dropped("disconnected");
  const std::uint64_t up = messages("to_controller");
  ch.send_to_device({EchoRequest{Xid{1}}});
  EXPECT_EQ(dropped("disconnected") - lost, 2u);
  EXPECT_EQ(messages("to_controller") - up, 2u);  // counted when sent

  // Sends after the disconnect are dropped whole and never counted as sent.
  const std::uint64_t down = messages("to_device");
  ch.send_to_device(echo_unit(20, 3));
  EXPECT_EQ(dropped("disconnected") - lost, 5u);
  EXPECT_EQ(messages("to_device"), down);
}

TEST(Channel, ImpairedDropLosesTheWholeUnit) {
  Channel ch;
  int delivered = 0;
  ch.bind_device([&](const Message&) { ++delivered; });
  Impairment drop_all;
  drop_all.drop = 1.0;
  ch.impair(drop_all, 7);
  EXPECT_TRUE(ch.impaired());
  const std::uint64_t lost = dropped("impaired");
  const std::uint64_t sent = messages("to_device");
  ch.send_to_device(echo_unit(1, 4));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(dropped("impaired") - lost, 4u);
  EXPECT_EQ(messages("to_device") - sent, 4u);  // counted before the loss

  ch.clear_impairment();
  ch.send_to_device({EchoRequest{Xid{9}}});
  EXPECT_EQ(delivered, 1);
}

TEST(Channel, ImpairedDuplicateDeliversTheUnitTwiceInOrder) {
  Channel ch;
  std::vector<std::uint64_t> seen;
  ch.bind_device([&](const Message& m) { seen.push_back(xid_of(m)); });
  Impairment dup_all;
  dup_all.duplicate = 1.0;
  ch.impair(dup_all, 7);
  const std::uint64_t sent = messages("to_device");
  const std::uint64_t dups = series("southbound_impairments_total", "effect", "duplicate");
  ch.send_to_device(echo_unit(1, 2));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 1, 2}));
  EXPECT_EQ(messages("to_device") - sent, 2u);  // the copy is not a send
  EXPECT_EQ(series("southbound_impairments_total", "effect", "duplicate") - dups, 1u);
}

TEST(Channel, ImpairmentFatesAreSeeded) {
  Impairment profile;
  profile.drop = 0.4;
  profile.duplicate = 0.3;
  auto run = [&](std::uint64_t seed) {
    Channel ch;
    std::vector<std::uint64_t> seen;
    ch.bind_device([&](const Message& m) { seen.push_back(xid_of(m)); });
    ch.bind_controller([&](const Message& m) { seen.push_back(1000 + xid_of(m)); });
    ch.impair(profile, seed);
    for (std::uint64_t u = 0; u < 40; ++u) {
      if (u % 2 == 0) {
        ch.send_to_device(echo_unit(u * 10, 2));
      } else {
        ch.send_to_controller({EchoRequest{Xid{u * 10}}});
      }
    }
    return seen;
  };
  const std::uint64_t drops = series("southbound_impairments_total", "effect", "drop");
  const std::uint64_t dups = series("southbound_impairments_total", "effect", "duplicate");
  std::vector<std::uint64_t> first = run(42);
  // The profile bit: some units were lost and some duplicated.
  EXPECT_GT(series("southbound_impairments_total", "effect", "drop"), drops);
  EXPECT_GT(series("southbound_impairments_total", "effect", "duplicate"), dups);
  EXPECT_EQ(first, run(42));
  EXPECT_NE(first, run(43));
}

/// Channel whose sides live on two shards of a running engine: the
/// controller on shard 0, the device on shard 1.
class EngineBoundChannel : public ::testing::Test {
 protected:
  static sim::ShardedSimulator::Options two_threads() {
    sim::ShardedSimulator::Options opts;
    opts.threads = 2;
    return opts;
  }

  void SetUp() override {
    Channel::ShardBinding binding;
    binding.engine = &engine;
    binding.controller_shard = 0;
    binding.device_shard = 1;
    binding.to_device_delay = sim::Duration::millis(5.0);
    binding.to_controller_delay = sim::Duration::millis(3.0);
    ch.bind_shards(binding);
    ch.bind_device([this](const Message& m) {
      Delivery d;
      d.xid = xid_of(m);
      d.shard = sim::ShardedSimulator::current_shard();
      d.at = engine.now(d.shard);
      d.ctx = obs::default_tracer().current();
      device_log.push_back(d);
    });
  }

  /// Runs `send` inside a shard-0 event at t = 2 ms.
  template <typename F>
  void send_from_controller(F send) {
    engine.schedule(0, sim::Duration::millis(2.0), [this, send] {
      obs::Tracer::ScopedContext scoped(obs::default_tracer(), sender_ctx);
      send();
    });
    engine.run();
  }

  struct Delivery {
    std::uint64_t xid = 0;
    sim::ShardId shard = 0;
    sim::TimePoint at;
    obs::TraceContext ctx;
  };

  sim::ShardedSimulator engine{2, two_threads()};
  Channel ch;
  std::vector<Delivery> device_log;
  obs::TraceContext sender_ctx{77, 78};
};

TEST_F(EngineBoundChannel, UnitLandsOnTheDeviceShardAfterTheDelay) {
  EXPECT_TRUE(ch.shard_bound());
  const std::uint64_t before = engine.events_executed();
  const std::uint64_t sent = messages("to_device");
  const std::uint64_t sent_batches = batches("to_device");
  send_from_controller([this] { ch.send_to_device(echo_unit(1, 3)); });
  // The sending event plus one delivery event for the whole unit.
  EXPECT_EQ(engine.events_executed() - before, 2u);
  EXPECT_EQ(messages("to_device") - sent, 3u);
  EXPECT_EQ(batches("to_device") - sent_batches, 1u);
  ASSERT_EQ(device_log.size(), 3u);
  for (std::size_t i = 0; i < device_log.size(); ++i) {
    EXPECT_EQ(device_log[i].xid, i + 1);
    EXPECT_EQ(device_log[i].shard, 1u);
    EXPECT_EQ(device_log[i].at, sim::TimePoint::at(sim::Duration::millis(7.0)));
  }
}

TEST_F(EngineBoundChannel, SenderTraceContextIsAmbientInTheHandler) {
  send_from_controller([this] { ch.send_to_device({EchoRequest{Xid{5}}}); });
  ASSERT_EQ(device_log.size(), 1u);
  EXPECT_EQ(device_log[0].ctx, sender_ctx);
}

TEST_F(EngineBoundChannel, DuplicatedUnitPostsTwoEvents) {
  Impairment dup_all;
  dup_all.duplicate = 1.0;
  ch.impair(dup_all, 3);
  const std::uint64_t before = engine.events_executed();
  send_from_controller([this] { ch.send_to_device(echo_unit(1, 2)); });
  EXPECT_EQ(engine.events_executed() - before, 3u);
  ASSERT_EQ(device_log.size(), 4u);
  std::vector<std::uint64_t> xids;
  for (const Delivery& d : device_log) xids.push_back(d.xid);
  EXPECT_EQ(xids, (std::vector<std::uint64_t>{1, 2, 1, 2}));
}

TEST_F(EngineBoundChannel, ControllerSideRunsOnItsShard) {
  std::vector<sim::ShardId> shards;
  std::vector<sim::TimePoint> times;
  ch.bind_controller([&](const Message&) {
    shards.push_back(sim::ShardedSimulator::current_shard());
    times.push_back(engine.now(0));
  });
  engine.schedule(1, sim::Duration::millis(1.0),
                  [this] { ch.send_to_controller(echo_unit(1, 2)); });
  engine.run();
  EXPECT_EQ(shards, (std::vector<sim::ShardId>{0, 0}));
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], sim::TimePoint::at(sim::Duration::millis(4.0)));
}

TEST_F(EngineBoundChannel, SendOutsideAShardEventUsesThePump) {
  // Engine idle: the send is delivered synchronously, not posted.
  ch.send_to_device({EchoRequest{Xid{8}}});
  ASSERT_EQ(device_log.size(), 1u);
  EXPECT_EQ(engine.events_executed(), 0u);
}

class AgentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    a = net.add_switch();
    b = net.add_switch();
    link = *net.connect(a, b);
    hub = std::make_unique<Hub>(&net);
  }

  dataplane::PhysicalNetwork net;
  SwitchId a, b;
  LinkId link;
  std::unique_ptr<Hub> hub;
};

TEST_F(AgentFixture, ConnectSendsHelloAndAnswersFeatures) {
  Channel ch;
  std::vector<Message> inbox;
  ch.bind_controller([&](const Message& m) { inbox.push_back(m); });
  hub->agent(a)->connect(ControllerId{1}, &ch);
  ASSERT_GE(inbox.size(), 1u);
  ASSERT_TRUE(std::holds_alternative<Hello>(inbox[0]));
  EXPECT_EQ(std::get<Hello>(inbox[0]).sw, a);
  EXPECT_EQ(net.sw(a)->master(), ControllerId{1});

  ch.send_to_device({FeaturesRequest{Xid{5}, a}});
  ASSERT_EQ(inbox.size(), 2u);
  const auto& reply = std::get<FeaturesReply>(inbox[1]);
  EXPECT_EQ(reply.xid, Xid{5});
  EXPECT_FALSE(reply.is_gswitch);
  EXPECT_EQ(reply.ports.size(), 1u);  // just the link port
}

TEST_F(AgentFixture, FlowModProgramsTheSwitch) {
  Channel ch;
  ch.bind_controller([](const Message&) {});
  hub->agent(a)->connect(ControllerId{1}, &ch);
  FlowMod mod;
  mod.op = FlowMod::Op::kAdd;
  mod.sw = a;
  mod.rule.cookie = 9;
  ch.send_to_device({mod});
  EXPECT_EQ(net.sw(a)->table().size(), 1u);
  mod.op = FlowMod::Op::kRemoveByCookie;
  mod.cookie = 9;
  ch.send_to_device({mod});
  EXPECT_EQ(net.sw(a)->table().size(), 0u);
}

TEST_F(AgentFixture, DiscoveryFrameCrossesTheWireWithMetadata) {
  Channel cha, chb;
  std::vector<Message> inbox_b;
  cha.bind_controller([](const Message&) {});
  chb.bind_controller([&](const Message& m) { inbox_b.push_back(m); });
  hub->agent(a)->connect(ControllerId{1}, &cha);
  hub->agent(b)->connect(ControllerId{2}, &chb);
  inbox_b.clear();

  DiscoveryPayload payload;
  payload.stack.push_back(DiscoveryStackEntry{ControllerId{1}, a, net.link(link)->a.port});
  PacketOut out;
  out.sw = a;
  out.port = net.link(link)->a.port;
  out.body = payload;
  cha.send_to_device({out});

  ASSERT_EQ(inbox_b.size(), 1u);
  const auto& in = std::get<PacketIn>(inbox_b[0]);
  EXPECT_EQ(in.sw, b);
  EXPECT_EQ(in.in_port, net.link(link)->b.port);
  const auto& received = std::get<DiscoveryPayload>(in.body);
  EXPECT_TRUE(received.meta.filled);
  EXPECT_DOUBLE_EQ(received.meta.latency_us, 5000);
  ASSERT_EQ(received.stack.size(), 1u);
  EXPECT_EQ(received.stack.back().controller, ControllerId{1});
}

TEST_F(AgentFixture, FrameOutDownLinkIsLost) {
  Channel cha, chb;
  std::vector<Message> inbox_b;
  cha.bind_controller([](const Message&) {});
  chb.bind_controller([&](const Message& m) { inbox_b.push_back(m); });
  hub->agent(a)->connect(ControllerId{1}, &cha);
  hub->agent(b)->connect(ControllerId{2}, &chb);
  inbox_b.clear();
  ASSERT_TRUE(net.set_link_up(link, false).ok());
  inbox_b.clear();  // drop the port-status event

  PacketOut out;
  out.sw = a;
  out.port = net.link(link)->a.port;
  out.body = DiscoveryPayload{};
  cha.send_to_device({out});
  EXPECT_TRUE(inbox_b.empty());
}

TEST_F(AgentFixture, RoleRequestChangesRole) {
  Channel ch1, ch2;
  std::vector<Message> inbox2;
  ch1.bind_controller([](const Message&) {});
  ch2.bind_controller([&](const Message& m) { inbox2.push_back(m); });
  hub->agent(a)->connect(ControllerId{1}, &ch1, dataplane::ControllerRole::kMaster);
  hub->agent(a)->connect(ControllerId{2}, &ch2, dataplane::ControllerRole::kEqual);
  inbox2.clear();

  RoleRequest promote;
  promote.xid = Xid{1};
  promote.sw = a;
  promote.controller = ControllerId{2};
  promote.role = dataplane::ControllerRole::kMaster;
  ch2.send_to_device({promote});
  EXPECT_EQ(net.sw(a)->master(), ControllerId{2});
  ASSERT_FALSE(inbox2.empty());
  EXPECT_TRUE(std::holds_alternative<RoleReply>(inbox2.back()));
}

TEST_F(AgentFixture, EqualRoleControllerAlsoGetsPunts) {
  Channel ch1, ch2;
  int punts1 = 0, punts2 = 0;
  ch1.bind_controller([&](const Message& m) {
    punts1 += std::holds_alternative<PacketIn>(m) ? 1 : 0;
  });
  ch2.bind_controller([&](const Message& m) {
    punts2 += std::holds_alternative<PacketIn>(m) ? 1 : 0;
  });
  hub->agent(a)->connect(ControllerId{1}, &ch1, dataplane::ControllerRole::kMaster);
  hub->agent(a)->connect(ControllerId{2}, &ch2, dataplane::ControllerRole::kEqual);

  Packet pkt;
  auto report = net.inject_at(pkt, net.link(link)->a);
  hub->deliver_packet_ins(report);
  EXPECT_EQ(punts1, 1);
  EXPECT_EQ(punts2, 1);
}

TEST_F(AgentFixture, LinkFailureEmitsPortStatusToBothEnds) {
  Channel cha, chb;
  std::vector<Message> ia, ib;
  cha.bind_controller([&](const Message& m) { ia.push_back(m); });
  chb.bind_controller([&](const Message& m) { ib.push_back(m); });
  hub->agent(a)->connect(ControllerId{1}, &cha);
  hub->agent(b)->connect(ControllerId{2}, &chb);
  ia.clear();
  ib.clear();
  ASSERT_TRUE(net.set_link_up(link, false).ok());
  ASSERT_EQ(ia.size(), 1u);
  ASSERT_EQ(ib.size(), 1u);
  const auto& status = std::get<PortStatus>(ia[0]);
  EXPECT_FALSE(status.desc.up);
  EXPECT_EQ(status.sw, a);
}

}  // namespace
}  // namespace softmow::southbound

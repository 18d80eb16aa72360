#include <gtest/gtest.h>

#include "dataplane/network.h"
#include "southbound/channel.h"
#include "southbound/switch_agent.h"

namespace softmow::southbound {
namespace {

TEST(Channel, DeliversBothDirections) {
  Channel ch;
  std::vector<std::string> log;
  ch.bind_controller([&](const Message& m) { log.push_back(std::string("c:") + message_name(m)); });
  ch.bind_device([&](const Message& m) { log.push_back(std::string("d:") + message_name(m)); });
  ch.send_to_device(EchoRequest{Xid{1}});
  ch.send_to_controller(EchoReply{Xid{1}});
  EXPECT_EQ(log, (std::vector<std::string>{"d:echo-request", "c:echo-reply"}));
  EXPECT_EQ(ch.sent_to_device(), 1u);
  EXPECT_EQ(ch.sent_to_controller(), 1u);
}

TEST(Channel, ReentrantSendsAreFlattenedFifo) {
  Channel ch;
  std::vector<int> order;
  ch.bind_device([&](const Message&) {
    order.push_back(1);
    // Handler sends back; must not recurse into nested delivery.
    ch.send_to_controller(EchoReply{Xid{1}});
    order.push_back(2);
  });
  ch.bind_controller([&](const Message&) { order.push_back(3); });
  ch.send_to_device(EchoRequest{Xid{1}});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, UnboundHandlerDropsSilently) {
  Channel ch;
  ch.send_to_device(EchoRequest{Xid{1}});  // no device handler: dropped
  EXPECT_EQ(ch.sent_to_device(), 1u);
}

TEST(Channel, DisconnectStopsDelivery) {
  Channel ch;
  int delivered = 0;
  ch.bind_device([&](const Message&) { ++delivered; });
  ch.disconnect();
  ch.send_to_device(EchoRequest{Xid{1}});
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(ch.connected());
}

TEST(Channel, SharedCounterTalliesDirections) {
  // Every channel feeds the same registry series, split by direction; a
  // batch counts its messages once each and one delivery unit.
  auto series = [](const char* name, const char* direction) {
    return obs::default_registry().counter(name, {{"direction", direction}});
  };
  obs::Counter* down = series("southbound_messages_total", "to_device");
  obs::Counter* up = series("southbound_messages_total", "to_controller");
  obs::Counter* down_batches = series("southbound_batches_total", "to_device");
  obs::Counter* up_batches = series("southbound_batches_total", "to_controller");
  const std::uint64_t down0 = down->value(), up0 = up->value();
  const std::uint64_t down_batches0 = down_batches->value(), up_batches0 = up_batches->value();

  Channel a, b;
  a.bind_device([](const Message&) {});
  b.bind_controller([](const Message&) {});
  a.send_to_device(EchoRequest{Xid{1}});
  b.send_to_controller(EchoReply{Xid{1}});
  a.send_to_device_batch({EchoRequest{Xid{2}}, EchoRequest{Xid{3}}});
  EXPECT_EQ(down->value() - down0, 3u);
  EXPECT_EQ(up->value() - up0, 1u);
  EXPECT_EQ(down_batches->value() - down_batches0, 2u);
  EXPECT_EQ(up_batches->value() - up_batches0, 1u);
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

  ch.send_to_device(FeaturesRequest{Xid{5}, a});
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
  ch.send_to_device(mod);
  EXPECT_EQ(net.sw(a)->table().size(), 1u);
  mod.op = FlowMod::Op::kRemoveByCookie;
  mod.cookie = 9;
  ch.send_to_device(mod);
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
  cha.send_to_device(out);

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
  cha.send_to_device(out);
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
  ch2.send_to_device(promote);
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

#include "simnet/network.hpp"

#include <algorithm>
#include <cassert>

namespace jenga::sim {

void Network::register_node(NodeId id, Handler handler) {
  if (handlers_.size() <= id.value) {
    handlers_.resize(id.value + 1);
    egress_busy_until_.resize(id.value + 1, 0);
    down_.resize(id.value + 1, false);
    partition_group_.resize(id.value + 1, 0);
    node_sent_msgs_.resize(id.value + 1, 0);
    node_sent_bytes_.resize(id.value + 1, 0);
  }
  handlers_[id.value] = std::move(handler);
}

void Network::set_link_delay(NodeId from, NodeId to, SimTime extra) {
  const std::uint64_t key = (static_cast<std::uint64_t>(from.value) << 32) | to.value;
  if (extra <= 0) {
    link_delay_.erase(key);
  } else {
    link_delay_[key] = extra;
  }
}

void Network::set_node_gray(NodeId id, const NodeGray& g) {
  if (g.any()) {
    gray_[id.value] = g;
  } else {
    gray_.erase(id.value);  // keep gray_ empty so clean paths stay untouched
  }
}

NodeGray Network::node_gray(NodeId id) const {
  const auto it = gray_.find(id.value);
  return it == gray_.end() ? NodeGray{} : it->second;
}

void Network::set_partition_group(NodeId id, std::uint8_t group) {
  if (partition_group_.size() <= id.value) partition_group_.resize(id.value + 1, 0);
  partition_group_[id.value] = group;
}

void Network::partition(std::span<const NodeId> nodes, std::uint8_t group) {
  for (NodeId n : nodes) set_partition_group(n, group);
}

void Network::heal_partitions() {
  std::fill(partition_group_.begin(), partition_group_.end(), 0);
}

bool Network::partitioned(NodeId a, NodeId b) const {
  const std::uint8_t ga = a.value < partition_group_.size() ? partition_group_[a.value] : 0;
  const std::uint8_t gb = b.value < partition_group_.size() ? partition_group_[b.value] : 0;
  return ga != gb;
}

bool Network::deliver_faulty(NodeId from, SimTime when, NodeId to, Message msg) {
  const std::uint64_t link_key =
      (static_cast<std::uint64_t>(from.value) << 32) | to.value;
  if (partitioned(from, to)) {
    ++fault_stats_.partition_blocked;
    return false;
  }
  if (to.value < down_.size() && down_[to.value]) {
    ++fault_stats_.down_blocked;
    return false;
  }
  if (!link_delay_.empty()) {
    const auto it = link_delay_.find(link_key);
    if (it != link_delay_.end()) when += it->second;
  }
  if (!gray_.empty()) {
    if (const auto it = gray_.find(to.value); it != gray_.end()) {
      const NodeGray& g = it->second;
      when += g.proc_delay;  // degraded receive path: deterministic stall
      // Lossy NIC: inbound loss at the receiver, charged separately from the
      // link-level drop profile so chaos reports can attribute it.
      if (g.ingress_drop_rate > 0 && rng_.chance(g.ingress_drop_rate)) {
        ++fault_stats_.gray_dropped;
        ++fault_stats_.per_link[link_key].dropped;
        return false;
      }
    }
  }
  // Guard every rng draw behind its knob so fault-free runs consume the
  // exact same random stream as before the fault layer existed.
  if (faults_.extra_delay_max > 0)
    when += static_cast<SimTime>(rng_.uniform(static_cast<std::uint64_t>(faults_.extra_delay_max)));
  bool scheduled = false;
  if (faults_.duplicate_rate > 0 && rng_.chance(faults_.duplicate_rate)) {
    ++fault_stats_.duplicated;
    ++fault_stats_.per_link[link_key].duplicated;
    // The extra copy trails the original by one latency quantum and is
    // itself subject to the drop draw below.
    if (!(faults_.drop_rate > 0 && rng_.chance(faults_.drop_rate))) {
      deliver_at(when + config_.base_latency / 4, to, msg);
      scheduled = true;
    } else {
      ++fault_stats_.dropped;
      ++fault_stats_.per_link[link_key].dropped;
    }
  }
  if (faults_.drop_rate > 0 && rng_.chance(faults_.drop_rate)) {
    ++fault_stats_.dropped;
    ++fault_stats_.per_link[link_key].dropped;
    return scheduled;
  }
  deliver_at(when, to, std::move(msg));
  return true;
}

SimTime Network::serialization_delay(std::uint32_t bytes) const {
  if (!config_.model_bandwidth || config_.bandwidth_bps <= 0) return 0;
  const double seconds = static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps;
  return static_cast<SimTime>(seconds * static_cast<double>(kSecond));
}

SimTime Network::jitter() {
  if (config_.jitter_max <= 0) return 0;
  return static_cast<SimTime>(rng_.uniform(static_cast<std::uint64_t>(config_.jitter_max)));
}

SimTime Network::egress_ser(NodeId from, SimTime ser) const {
  if (gray_.empty()) return ser;
  const auto it = gray_.find(from.value);
  if (it == gray_.end() || it->second.serialize_factor == 1.0) return ser;
  return static_cast<SimTime>(static_cast<double>(ser) * it->second.serialize_factor);
}

SimTime Network::reserve_egress(NodeId from, std::uint32_t bytes) {
  assert(from.value < egress_busy_until_.size());
  const SimTime start = std::max(sim_.now(), egress_busy_until_[from.value]);
  const SimTime departure = start + egress_ser(from, serialization_delay(bytes));
  egress_busy_until_[from.value] = departure;
  return departure;
}

void Network::deliver_at(SimTime when, NodeId to, Message msg) {
  if (to.value >= handlers_.size() || !handlers_[to.value]) return;
  if (down_[to.value]) {
    ++fault_stats_.down_blocked;
    return;
  }
  if (telemetry_ != nullptr) {
    telemetry_->net.hop_delay_us.record(when - sim_.now());
    telemetry_->causal.note_arrival(msg.span, when);
  }
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(in_flight_.size()));
    in_flight_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  in_flight_[slot] = InFlight{to, std::move(msg)};
  sim_.schedule_at(when, Delivery{this, slot});
}

void Network::land(std::uint32_t slot) {
  // Take the message out first: the handler may send, which can grow the
  // slab and reuse this slot.
  const NodeId to = in_flight_[slot].to;
  const Message msg = std::move(in_flight_[slot].msg);
  free_slots_.push_back(slot);
  // Re-checked at delivery time: a message in flight to a node that
  // crashes before it lands is lost with the crash.
  if (down_[to.value]) return;
  // The handler (and everything it schedules or sends) runs in the causal
  // context of this delivery; step() resets the context afterwards.
  sim_.set_context(msg.span);
  // Inter-arrival sampling for the failure detector: node-to-node traffic
  // only (clients are reliable out-of-band), pure bookkeeping.
  if (arrival_observer_ != nullptr && msg.from.value < handlers_.size() &&
      msg.from.value != to.value)
    arrival_observer_->on_arrival(msg.from, to, sim_.now());
  if (telemetry_ != nullptr && telemetry_->flight.enabled()) {
    telemetry::FlightEvent e;
    e.at = sim_.now();
    e.node = to.value;
    e.kind = telemetry::FlightEvent::Kind::kDeliver;
    e.msg_type = static_cast<std::uint16_t>(msg.type);
    e.span = msg.span;
    const telemetry::CausalSpan* s = telemetry_->causal.span(msg.span);
    e.parent = s != nullptr ? s->parent : 0;
    e.a = msg.from.value;
    e.b = msg.size_bytes;
    telemetry_->flight.record(to.value, e);
  }
  // Rumor transport traffic is consumed by the mesh, which unpacks and
  // hands accepted rumors to the node handler via deliver_local (keeping
  // the carrying hop's causal context).
  if (rumor_ != nullptr && is_rumor_transport_type(msg.type)) {
    rumor_->on_message(to, msg);
    return;
  }
  handlers_[to.value](msg);
}

void Network::stamp_span(Message& msg, std::uint32_t from, std::uint32_t to, SimTime send,
                         SimTime depart) {
  const std::uint64_t parent =
      telemetry_ != nullptr ? telemetry_->causal.current_context() : 0;
  stamp_span_with_parent(msg, from, to, send, depart, parent);
}

void Network::stamp_span_with_parent(Message& msg, std::uint32_t from, std::uint32_t to,
                                     SimTime send, SimTime depart, std::uint64_t parent) {
  msg.span = 0;
  if (telemetry_ == nullptr) return;
  if (telemetry_->causal.enabled())
    msg.span = telemetry_->causal.begin_span_with_parent(
        static_cast<std::uint16_t>(msg.type), from, to, send, depart, parent);
  if (telemetry_->flight.enabled()) {
    telemetry::FlightEvent e;
    e.at = send;
    e.node = from;
    e.kind = telemetry::FlightEvent::Kind::kSend;
    e.msg_type = static_cast<std::uint16_t>(msg.type);
    e.span = msg.span;
    e.parent = parent;
    e.a = to;
    e.b = msg.size_bytes;
    telemetry_->flight.record(from, e);
  }
}

void Network::account(TrafficClass cls, MsgType type, std::uint32_t bytes) {
  stats_.messages[static_cast<std::size_t>(cls)] += 1;
  stats_.bytes[static_cast<std::size_t>(cls)] += bytes;
  if (telemetry_ != nullptr)
    telemetry_->net.record(static_cast<std::uint16_t>(type), bytes);
}

void Network::account_sender(NodeId from, std::uint32_t bytes) {
  if (from.value >= node_sent_msgs_.size()) return;  // clients are not nodes
  node_sent_msgs_[from.value] += 1;
  node_sent_bytes_[from.value] += bytes;
}

void Network::set_telemetry(telemetry::Telemetry* t) {
  telemetry_ = t;
  if (t == nullptr) return;
  for (std::size_t i = 0; i < telemetry::MessageTelemetry::kMaxTypes; ++i)
    t->net.type_name[i] = msg_type_name(static_cast<MsgType>(i));
  t->causal.bind_context(sim_.context_handle());
}

void Network::send(NodeId from, NodeId to, Message msg, TrafficClass cls) {
  if (from.value < down_.size() && down_[from.value]) return;
  account(cls, msg.type, msg.size_bytes);
  account_sender(from, msg.size_bytes);
  const SimTime departure = reserve_egress(from, msg.size_bytes);
  stamp_span(msg, from.value, to.value, sim_.now(), departure);
  deliver_faulty(from, departure + config_.base_latency + jitter(), to, std::move(msg));
}

void Network::multicast(NodeId from, std::span<const NodeId> group, const Message& msg,
                        TrafficClass cls) {
  for (NodeId to : group) {
    if (to == from) continue;
    send(from, to, msg, cls);
  }
}

void Network::gossip(NodeId from, std::span<const NodeId> group, const Message& msg,
                     TrafficClass cls) {
  if (from.value < down_.size() && down_[from.value]) return;
  // Build a deterministic random relay order, then connect members as a
  // `fanout`-ary tree rooted at `from`.  Hop h's delivery time is the
  // parent's departure + latency; each parent pays serialization once per
  // child, modelling pipelined block dissemination.
  std::vector<NodeId> order;
  order.reserve(group.size());
  for (NodeId n : group)
    if (n != from) order.push_back(n);
  // Fisher–Yates with the network's own rng: deterministic per run.
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng_.uniform(i))]);

  const std::size_t fanout = std::max<std::size_t>(1, config_.gossip_fanout);

  // arrival[i]: when order[i] has fully received the message.
  std::vector<SimTime> arrival(order.size(), 0);
  // received[i]: whether order[i] actually got a copy.  A relay whose own
  // delivery was dropped (or partitioned away) cannot forward, so its whole
  // subtree goes dark — that is what makes gossip genuinely fragile under
  // message loss, and what the subgroup-redundancy property defends against.
  std::vector<bool> received(order.size(), false);
  // Track per-relay egress reservations locally: relays forward *after* they
  // receive, so the global egress ledger (keyed at current sim time) cannot
  // be used directly for future sends.
  std::vector<SimTime> relay_busy(order.size(), 0);

  const SimTime ser = serialization_delay(msg.size_bytes);
  const SimTime root_ser = egress_ser(from, ser);

  // Spans per hop: the root's children are caused by the current handler
  // context; a relay hop is caused by the relay's own inbound copy.
  std::vector<std::uint64_t> hop_span(order.size(), 0);

  // Root sends to the first `fanout` members, using the real egress ledger.
  const SimTime root_send = sim_.now();
  SimTime root_departure = std::max(sim_.now(), egress_busy_until_[from.value]);
  for (std::size_t i = 0; i < order.size() && i < fanout; ++i) {
    root_departure += root_ser;
    arrival[i] = root_departure + config_.base_latency + jitter();
    account(cls, msg.type, msg.size_bytes);
    account_sender(from, msg.size_bytes);
    Message copy = msg;
    stamp_span(copy, from.value, order[i].value, root_send, root_departure);
    hop_span[i] = copy.span;
    received[i] = deliver_faulty(from, arrival[i], order[i], std::move(copy));
  }
  if (!order.empty()) egress_busy_until_[from.value] = root_departure;

  // Interior relays: entries past the root's direct children form a k-ary
  // forest — order[child]'s parent is order[(child - fanout) / fanout].
  for (std::size_t child = fanout; child < order.size(); ++child) {
    const std::size_t parent = (child - fanout) / fanout;
    if (!received[parent]) continue;  // relay never got the message
    const SimTime departure =
        std::max(arrival[parent], relay_busy[parent]) + egress_ser(order[parent], ser);
    relay_busy[parent] = departure;
    arrival[child] = departure + config_.base_latency + jitter();
    account(cls, msg.type, msg.size_bytes);
    account_sender(order[parent], msg.size_bytes);
    Message copy = msg;
    stamp_span_with_parent(copy, order[parent].value, order[child].value, arrival[parent],
                           departure, hop_span[parent]);
    hop_span[child] = copy.span;
    received[child] = deliver_faulty(order[parent], arrival[child], order[child],
                                     std::move(copy));
  }
}

void Network::send_via_relay(NodeId from, NodeId to, Message msg, TrafficClass cls) {
  if (from.value < down_.size() && down_[from.value]) return;
  account(cls, msg.type, msg.size_bytes);
  account(cls, msg.type, msg.size_bytes);  // second leg: relay -> destination
  account_sender(from, msg.size_bytes);
  const SimTime departure = reserve_egress(from, msg.size_bytes);
  stamp_span(msg, from.value, to.value, sim_.now(), departure);
  // The relay's own serialization is charged as one extra payload time.
  const SimTime arrival = departure + serialization_delay(msg.size_bytes) +
                          2 * config_.base_latency + jitter() + jitter();
  // Two physical legs -> two independent drop opportunities; modelled as one
  // faulty delivery per leg by drawing the drop twice.
  if (faults_.drop_rate > 0 && rng_.chance(faults_.drop_rate)) {
    ++fault_stats_.dropped;
    ++fault_stats_.per_link[(static_cast<std::uint64_t>(from.value) << 32) | to.value]
          .dropped;
    return;
  }
  deliver_faulty(from, arrival, to, std::move(msg));
}

void Network::broadcast(BroadcastKind kind, NodeId from, std::span<const NodeId> group,
                        std::uint64_t rumor_id, const Message& msg, TrafficClass cls) {
  switch (config_.transport_for(kind)) {
    case Transport::kNaive:
      multicast(from, group, msg, cls);
      return;
    case Transport::kTree:
      gossip(from, group, msg, cls);
      return;
    case Transport::kRumor:
      if (rumor_ != nullptr) {
        if (from.value < down_.size() && down_[from.value]) return;
        rumor_->broadcast(from, group, rumor_id, msg, cls);
      } else {
        gossip(from, group, msg, cls);  // no mesh attached: degrade to tree
      }
      return;
  }
}

void Network::deliver_local(NodeId to, const Message& msg) {
  if (to.value >= handlers_.size() || !handlers_[to.value]) return;
  if (down_[to.value]) return;
  handlers_[to.value](msg);
}

void Network::client_send(NodeId to, Message msg) {
  account(TrafficClass::kClient, msg.type, msg.size_bytes);
  // Clients pay no egress serialization, so the span departs when it is sent.
  stamp_span(msg, telemetry::kClientNode, to.value, sim_.now(), sim_.now());
  deliver_at(sim_.now() + config_.base_latency + jitter(), to, std::move(msg));
}

void Network::set_node_down(NodeId id, bool down) {
  if (id.value < down_.size()) down_[id.value] = down;
}

bool Network::node_down(NodeId id) const {
  return id.value < down_.size() && down_[id.value];
}

}  // namespace jenga::sim

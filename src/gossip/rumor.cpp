#include "gossip/rumor.hpp"

#include <algorithm>
#include <bit>

namespace jenga::gossip {

std::uint64_t group_key_of(std::span<const NodeId> members) {
  std::uint64_t key = 0x8C5A6D82F3E1B947ULL;
  for (const NodeId n : members) key = sim::rumor_id_mix(key, n.value + 1);
  return key;
}

RumorMesh::GroupState& RumorMesh::group_for(std::uint64_t key, std::span<const NodeId> members,
                                            sim::TrafficClass cls) {
  auto [it, inserted] = groups_.try_emplace(key);
  GroupState& g = it->second;
  if (inserted) {
    g.members.assign(members.begin(), members.end());
    for (std::size_t i = 0; i < g.members.size(); ++i) g.index_of[g.members[i].value] = i;
    g.cls = cls;
    const auto n = std::max<std::size_t>(2, g.members.size());
    g.push_limit = static_cast<std::uint32_t>(std::bit_width(n - 1)) + config_.extra_push_rounds;
  }
  return g;
}

void RumorMesh::broadcast(NodeId origin, std::span<const NodeId> group, std::uint64_t rumor_id,
                          const sim::Message& msg, sim::TrafficClass cls) {
  if (group.empty()) return;
  const std::uint64_t key = group_key_of(group);
  GroupState& g = group_for(key, group, cls);

  const auto origin_slot = g.index_of.find(origin.value);
  if (origin_slot != g.index_of.end()) {
    NodeState& ns = node_state(key, origin_slot->second);
    if (ns.rumors.contains(rumor_id) || ns.retired.contains(rumor_id))
      return;  // relay dedup: already spreading (or already spread and retired)
    ++stats_.rumors_started;
    // The origin holds its own rumor without delivering it to itself (every
    // caller ingests its own copy locally, mirroring Network::gossip).
    accept(key, g, origin_slot->second, rumor_id, 0, msg, /*deliver=*/false);
    return;
  }

  // Origin outside the group (e.g. a late-abort answer into a foreign shard):
  // seed `fanout` random members directly with a one-shot push.
  ++stats_.rumors_started;
  auto payload = std::make_shared<RumorPushPayload>();
  payload->group_key = key;
  RumorPushPayload::Entry e;
  e.id = rumor_id;
  e.age = 0;
  e.inner = msg;
  payload->entries.push_back(std::move(e));
  sim::Message push;
  push.type = sim::MsgType::kRumorPush;
  push.from = origin;
  push.payload = payload;
  push.size_bytes = payload->wire_size();
  const std::size_t n = g.members.size();
  const std::size_t want = std::min(config_.fanout, n);
  std::vector<std::size_t> picks(n);
  for (std::size_t i = 0; i < n; ++i) picks[i] = i;
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng_.uniform(n - i));
    std::swap(picks[i], picks[j]);
    ++stats_.pushes_sent;
    net_.send(origin, g.members[picks[i]], push, cls);
  }
}

void RumorMesh::accept(std::uint64_t group_key, GroupState& g, std::size_t slot,
                       std::uint64_t id, std::uint16_t age, const sim::Message& inner,
                       bool deliver) {
  NodeState& ns = node_state(group_key, slot);
  RumorState rs;
  rs.age = age;
  rs.phase = age >= g.push_limit ? Phase::kKnown : Phase::kNew;
  rs.heard_at = net_.simulator().now();
  rs.msg = inner;
  ns.rumors.emplace(id, std::move(rs));
  ns.pulls_inflight.erase(id);

  auto& meta = g.meta[id];
  if (meta.holders == 0) meta.first_at = net_.simulator().now();
  ++meta.holders;
  if (!meta.covered && meta.holders == g.members.size()) {
    meta.covered = true;
    ++stats_.covered_rumors;
    const SimTime elapsed = net_.simulator().now() - meta.first_at;
    stats_.coverage_rounds.push_back(
        static_cast<std::uint32_t>(elapsed / std::max<SimTime>(1, config_.round_interval)) + 1);
  }

  if (deliver) {
    ++stats_.delivered;
    net_.deliver_local(g.members[slot], inner);
  }
  arm_timer(group_key, slot);
}

void RumorMesh::arm_timer(std::uint64_t group_key, std::size_t slot) {
  NodeState& ns = node_state(group_key, slot);
  if (ns.timer_armed) return;
  ns.timer_armed = true;
  net_.simulator().schedule_after(config_.round_interval,
                                  [this, group_key, slot] { tick(group_key, slot); });
}

std::vector<std::uint64_t> RumorMesh::build_digest(const NodeState& ns) const {
  std::vector<std::uint64_t> ids;
  ids.reserve(ns.rumors.size());
  for (const auto& [id, rs] : ns.rumors) ids.push_back(id);
  std::sort(ids.begin(), ids.end());  // canonical content, hash-order free
  if (ids.size() > config_.digest_window) {
    // Keep the most recently heard ids (the ones peers plausibly miss).
    std::vector<std::pair<SimTime, std::uint64_t>> by_age;
    by_age.reserve(ids.size());
    for (const std::uint64_t id : ids) by_age.emplace_back(ns.rumors.at(id).heard_at, id);
    std::sort(by_age.begin(), by_age.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first : a.second < b.second;
              });
    ids.clear();
    for (std::size_t i = 0; i < config_.digest_window; ++i) ids.push_back(by_age[i].second);
    std::sort(ids.begin(), ids.end());
  }
  return ids;
}

void RumorMesh::tick(std::uint64_t group_key, std::size_t slot) {
  const auto git = groups_.find(group_key);
  if (git == groups_.end()) return;
  GroupState& g = git->second;
  NodeState& ns = node_state(group_key, slot);
  ns.timer_armed = false;
  ++ns.ticks;
  const NodeId self = g.members[slot];
  const SimTime now = net_.simulator().now();

  // Retire rumors past retention: drop the payload, keep the id as a
  // tombstone so late pushes/pings cannot restart the spread.
  for (auto it = ns.rumors.begin(); it != ns.rumors.end();) {
    if (now - it->second.heard_at > config_.retention) {
      ns.retired.insert(it->first);
      it = ns.rumors.erase(it);
    } else {
      ++it;
    }
  }
  // Prune outstanding pulls by age rather than wholesale: pulls_inflight is
  // also the solicitation record the forged-response guard checks, so a
  // legitimately-late response to a recent request must still find its entry.
  // Anything older than twice the re-pull gap is dead weight either way.
  const SimTime pull_ttl = 4 * config_.round_interval;
  for (auto it = ns.pulls_inflight.begin(); it != ns.pulls_inflight.end();) {
    if (now - it->second > pull_ttl) {
      it = ns.pulls_inflight.erase(it);
    } else {
      ++it;
    }
  }
  if (ns.rumors.empty()) {
    return;  // quiet node: timer stays down until the next accept
  }

  if (!net_.node_down(self)) {
    // Collect NEW rumors (canonical id order) and advance their state machine.
    std::vector<std::uint64_t> fresh;
    for (auto& [id, rs] : ns.rumors) {
      if (rs.phase == Phase::kNew) fresh.push_back(id);
    }
    std::sort(fresh.begin(), fresh.end());

    const std::uint32_t every = std::max<std::uint32_t>(1, config_.anti_entropy_every);
    const bool ping_round = ns.ticks % every == 0;
    if (!fresh.empty() || ping_round) {
      auto payload = std::make_shared<RumorPushPayload>();
      payload->group_key = group_key;
      for (const std::uint64_t id : fresh) {
        RumorState& rs = ns.rumors.at(id);
        RumorPushPayload::Entry e;
        e.id = id;
        e.age = rs.age;
        e.inner = rs.msg;
        payload->entries.push_back(std::move(e));
      }
      payload->digest = build_digest(ns);
      sim::Message push;
      push.type = sim::MsgType::kRumorPush;
      push.from = self;
      push.payload = payload;
      push.size_bytes = payload->wire_size();

      // Fanout random distinct peers for pushes; one peer for a digest ping.
      const std::size_t n = g.members.size();
      const std::size_t want =
          std::min(fresh.empty() ? std::size_t{1} : config_.fanout, n - 1);
      std::vector<std::size_t> picks;
      picks.reserve(n - 1);
      for (std::size_t i = 0; i < n; ++i)
        if (i != slot) picks.push_back(i);
      for (std::size_t i = 0; i < want; ++i) {
        const std::size_t j = i + static_cast<std::size_t>(rng_.uniform(picks.size() - i));
        std::swap(picks[i], picks[j]);
        ++stats_.pushes_sent;
        net_.send(self, g.members[picks[i]], push, g.cls);
      }
    }

    // Age NEW rumors; the push budget and the dup-kill signal both end the
    // push phase (median-counter flavour of Karp et al.).
    for (auto& [id, rs] : ns.rumors) {
      if (rs.phase != Phase::kNew) continue;
      ++rs.age;
      if (rs.age >= g.push_limit || rs.dups >= config_.dup_kill) rs.phase = Phase::kKnown;
    }
  }

  arm_timer(group_key, slot);
}

void RumorMesh::send_pulls(std::uint64_t group_key, GroupState& g, std::size_t slot,
                           NodeId from_peer, std::span<const std::uint64_t> advertised) {
  NodeState& ns = node_state(group_key, slot);
  const SimTime now = net_.simulator().now();
  std::vector<std::uint64_t> missing;
  for (const std::uint64_t id : advertised) {
    if (ns.rumors.contains(id) || ns.retired.contains(id)) continue;
    const auto pit = ns.pulls_inflight.find(id);
    if (pit != ns.pulls_inflight.end() && now - pit->second < 2 * config_.round_interval)
      continue;  // a pull for this id is already in flight
    ns.pulls_inflight[id] = now;
    missing.push_back(id);
  }
  if (missing.empty()) return;
  auto payload = std::make_shared<RumorPullPayload>();
  payload->group_key = group_key;
  payload->ids = std::move(missing);
  sim::Message req;
  req.type = sim::MsgType::kRumorPullReq;
  req.from = g.members[slot];
  req.payload = payload;
  req.size_bytes = payload->wire_size();
  ++stats_.pull_requests;
  net_.send(g.members[slot], from_peer, req, g.cls);
}

void RumorMesh::handle_push(NodeId to, const sim::Message& msg) {
  const auto& p = sim::payload_as<RumorPushPayload>(msg);
  const auto git = groups_.find(p.group_key);
  if (git == groups_.end()) return;
  GroupState& g = git->second;
  const auto sit = g.index_of.find(to.value);
  if (sit == g.index_of.end()) return;
  const std::size_t slot = sit->second;
  NodeState& ns = node_state(p.group_key, slot);

  for (const auto& e : p.entries) {
    const auto rit = ns.rumors.find(e.id);
    if (rit != ns.rumors.end()) {
      ++stats_.dups_dropped;
      if (rit->second.dups < UINT8_MAX) ++rit->second.dups;
      continue;
    }
    if (ns.retired.contains(e.id)) {  // straggler copy of a retired rumor
      ++stats_.dups_dropped;
      continue;
    }
    sim::Message inner = e.inner;
    inner.span = msg.span;  // causality: the carrying push hop delivered it
    accept(p.group_key, g, slot, e.id, static_cast<std::uint16_t>(e.age + 1), inner,
           /*deliver=*/true);
  }
  if (!p.digest.empty()) send_pulls(p.group_key, g, slot, msg.from, p.digest);
}

void RumorMesh::handle_pull_req(NodeId to, const sim::Message& msg) {
  const auto& p = sim::payload_as<RumorPullPayload>(msg);
  const auto git = groups_.find(p.group_key);
  if (git == groups_.end()) return;
  GroupState& g = git->second;
  const auto sit = g.index_of.find(to.value);
  if (sit == g.index_of.end()) return;
  NodeState& ns = node_state(p.group_key, sit->second);

  // Per-(server, requester) rate limit: a suspect/byzantine peer hammering
  // pull requests is throttled instead of amplified into pull responses.
  const SimTime now = net_.simulator().now();
  auto& window = ns.pull_req_log[msg.from.value];
  if (now - window.first >= config_.pull_req_window) {
    window.first = now;
    window.second = 0;
  }
  if (++window.second > config_.pull_req_max) {
    ++stats_.pulls_throttled;
    return;
  }

  auto payload = std::make_shared<RumorPushPayload>();
  payload->group_key = p.group_key;
  for (const std::uint64_t id : p.ids) {
    const auto rit = ns.rumors.find(id);
    if (rit == ns.rumors.end()) continue;
    RumorPushPayload::Entry e;
    e.id = id;
    e.age = rit->second.age;
    e.inner = rit->second.msg;
    payload->entries.push_back(std::move(e));
  }
  if (payload->entries.empty()) return;
  sim::Message resp;
  resp.type = sim::MsgType::kRumorPullResp;
  resp.from = to;
  resp.size_bytes = payload->wire_size();
  resp.payload = std::move(payload);
  ++stats_.pull_responses;
  net_.send(to, msg.from, resp, g.cls);
}

void RumorMesh::handle_pull_resp(NodeId to, const sim::Message& msg) {
  const auto& p = sim::payload_as<RumorPushPayload>(msg);
  const auto git = groups_.find(p.group_key);
  if (git == groups_.end()) return;
  GroupState& g = git->second;
  const auto sit = g.index_of.find(to.value);
  if (sit == g.index_of.end()) return;
  const std::size_t slot = sit->second;
  NodeState& ns = node_state(p.group_key, slot);

  for (const auto& e : p.entries) {
    if (ns.rumors.contains(e.id) || ns.retired.contains(e.id)) {
      ++stats_.dups_dropped;
      continue;
    }
    // Solicited-response guard: only entries this node actually pulled are
    // accepted.  A tampered or forged response (an id nobody asked for, or an
    // id rewritten to smuggle a different payload) is dropped here — honest
    // peers only ever answer with the exact ids from the request.
    if (!ns.pulls_inflight.contains(e.id)) {
      ++stats_.resp_rejected;
      continue;
    }
    sim::Message inner = e.inner;
    inner.span = msg.span;
    accept(p.group_key, g, slot, e.id, static_cast<std::uint16_t>(e.age + 1), inner,
           /*deliver=*/true);
  }
}

void RumorMesh::on_message(NodeId to, const sim::Message& msg) {
  switch (msg.type) {
    case sim::MsgType::kRumorPush: handle_push(to, msg); return;
    case sim::MsgType::kRumorPullReq: handle_pull_req(to, msg); return;
    case sim::MsgType::kRumorPullResp: handle_pull_resp(to, msg); return;
    default: return;
  }
}

}  // namespace jenga::gossip

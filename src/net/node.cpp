#include "net/node.hpp"

#include "net/link.hpp"
#include "net/topology.hpp"
#include "util/log.hpp"

namespace tfmcc {

void Node::attach_agent(PortId port, Agent* agent) {
  for (auto& [p, a] : agents_) {
    if (p == port) {
      a = agent;
      return;
    }
  }
  agents_.emplace_back(port, agent);
}

void Node::detach_agent(PortId port) {
  for (auto it = agents_.begin(); it != agents_.end(); ++it) {
    if (it->first == port) {
      agents_.erase(it);
      return;
    }
  }
}

Link* Node::route(NodeId dst) const { return topo_.route(id_, dst); }

void Node::receive(const PacketPtr& p) {
  if (p->is_multicast()) {
    if (topo_.is_member(p->group, id_)) deliver_local(p);
    forward_multicast(p);
    return;
  }
  if (p->dst == id_) {
    deliver_local(p);
  } else {
    forward_unicast(p);
  }
}

void Node::send(const PacketPtr& p) {
  if (p->is_multicast()) {
    // Source injection: replicate down the distribution tree from here.
    forward_multicast(p);
    return;
  }
  if (p->dst == id_) {
    deliver_local(p);
    return;
  }
  forward_unicast(p);
}

void Node::deliver_local(const PacketPtr& p) {
  for (const auto& [port, agent] : agents_) {
    if (port == p->dport) {
      ++delivered_local_;
      delivered_endpoints_ += agent->endpoint_count();
      agent->handle_packet(*p);
      return;
    }
  }
}

void Node::forward_unicast(const PacketPtr& p) {
  Link* l = route(p->dst);
  if (l == nullptr) {
    TFMCC_LOG(LogLevel::kWarn, SimTime::zero(), "node",
              "node %d: no route to %d, packet dropped", id_, p->dst);
    return;
  }
  ++forwarded_;
  l->send(p);
}

void Node::forward_multicast(const PacketPtr& p) {
  for (Link* l : topo_.mcast_out_links(p->group, id_)) {
    ++forwarded_;
    l->send(p);
  }
}

}  // namespace tfmcc

#include "bittorrent/tracker.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace p2plab::bt {

Tracker::Tracker(sockets::SocketApi& api, Rng rng) : api_(&api), rng_(rng) {}

void Tracker::start() {
  listener_ = api_->listen(
      kPort, [this](sockets::StreamSocketPtr socket) {
        socket->on_message([this, socket](sockets::Message&& msg) {
          if (msg.type !=
              static_cast<std::uint32_t>(MsgType::kTrackerAnnounce)) {
            return;
          }
          const auto& announce = msg.as<TrackerAnnounceMsg>();
          AnnounceResponse response = handle_announce(announce.request);

          sockets::Message reply;
          reply.type = static_cast<std::uint32_t>(MsgType::kTrackerResponse);
          reply.size = announce_response_wire_size(response.peers.size());
          reply.body = std::make_shared<const TrackerResponseMsg>(
              TrackerResponseMsg{std::move(response)});
          socket->send(std::move(reply));
        });
      });
}

void Tracker::set_online(bool online) {
  if (online == this->online()) return;
  if (online) {
    start();
  } else {
    listener_.reset();  // connects now meet a closed port -> fast refusal
  }
}

std::size_t Tracker::swarm_size(std::uint64_t info_hash) const {
  const auto it = swarms_.find(info_hash);
  return it == swarms_.end() ? 0 : it->second.peers.size();
}

AnnounceResponse Tracker::handle_announce(const AnnounceRequest& request) {
  ++announces_;
  Swarm& swarm = swarms_[request.info_hash];

  const auto existing = std::find_if(
      swarm.peers.begin(), swarm.peers.end(),
      [&](const PeerInfo& p) { return p == request.peer; });

  switch (request.event) {
    case AnnounceEvent::kStarted:
    case AnnounceEvent::kPeriodic:
      if (existing == swarm.peers.end()) swarm.peers.push_back(request.peer);
      break;
    case AnnounceEvent::kCompleted:
      ++swarm.complete;
      if (existing == swarm.peers.end()) swarm.peers.push_back(request.peer);
      break;
    case AnnounceEvent::kStopped:
      if (existing != swarm.peers.end()) swarm.peers.erase(existing);
      break;
  }

  AnnounceResponse response;
  response.complete = swarm.complete;
  response.incomplete = static_cast<std::uint32_t>(
      swarm.peers.size() - std::min<std::size_t>(swarm.complete,
                                                 swarm.peers.size()));
  // Random sample excluding the requester.
  std::vector<PeerInfo> others;
  others.reserve(swarm.peers.size());
  for (const PeerInfo& p : swarm.peers) {
    if (!(p == request.peer)) others.push_back(p);
  }
  response.peers = rng_.sample(others, request.numwant);
  return response;
}

}  // namespace p2plab::bt

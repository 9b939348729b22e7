#include <openspace/topology/delta.hpp>

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include <openspace/core/assert.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/orbit/snapshot.hpp>

namespace openspace {

namespace {

std::uint64_t pairKey(NodeId a, NodeId b) noexcept {
  return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
}

/// The CSR-visible payload of two specs is bitwise identical (distanceM is
/// excluded: compileGraph never materializes it).
bool samePayload(const LinkSpec& x, const LinkSpec& y) noexcept {
  return bitsOf(x.propagationDelayS) == bitsOf(y.propagationDelayS) &&
         bitsOf(x.queueingDelayS) == bitsOf(y.queueingDelayS) &&
         bitsOf(x.capacityBps) == bitsOf(y.capacityBps);
}

bool sameStructure(const LinkSpec& x, const LinkSpec& y) noexcept {
  return x.a == y.a && x.b == y.b && x.type == y.type && x.band == y.band;
}

}  // namespace

TemporalCostModel delayCostModel() {
  TemporalCostModel m;
  m.spec = [](const LinkSpec& s) { return s.totalDelayS(); };
  m.link = [](const NetworkGraph&, const Link& l, ProviderId) {
    return l.totalDelayS();
  };
  m.kind = TemporalCostModel::Kind::Delay;
  return m;
}

TemporalCostModel hopCostModel() {
  TemporalCostModel m;
  m.spec = [](const LinkSpec&) { return 1.0; };
  m.link = [](const NetworkGraph&, const Link&, ProviderId) { return 1.0; };
  m.kind = TemporalCostModel::Kind::Hop;
  return m;
}

IncrementalTopology::IncrementalTopology(const TopologyBuilder& builder,
                                         const SnapshotOptions& opt,
                                         TemporalCostModel model)
    : builder_(builder), model_(std::move(model)), links_(builder, opt) {
  if (!model_.spec) {
    throw InvalidArgumentError("IncrementalTopology: null spec cost model");
  }
  // Node template in snapshot()'s emission order: satellites in ephemeris
  // order, then the enumerator's sites (stations, then users).
  auto nt = std::make_shared<CompactGraph::NodeTable>();
  for (const NodeId node : links_.satelliteNodes()) {
    nt->denseToNode.push_back(node);
    nt->nodeKind.push_back(NodeKind::Satellite);
  }
  for (const LinkEnumerator::Site& site : links_.sites()) {
    nt->denseToNode.push_back(site.node);
    nt->nodeKind.push_back(site.type == LinkType::Gsl ? NodeKind::GroundStation
                                                      : NodeKind::User);
  }
  nt->buildLookups();
  nodeTable_ = std::move(nt);
}

void IncrementalTopology::evaluateCosts() {
  nextCosts_.resize(nextSpecs_.size());
  if (model_.kind == TemporalCostModel::Kind::Hop) {
    std::fill(nextCosts_.begin(), nextCosts_.end(), 1.0);
    return;
  }
  // The delay model is inlined (the same expression as its factory lambda,
  // so the produced doubles are identical); only Custom models pay the
  // type-erased call per link.
  const bool delay = model_.kind == TemporalCostModel::Kind::Delay;
  for (std::size_t p = 0; p < nextSpecs_.size(); ++p) {
    const double c =
        delay ? nextSpecs_[p].totalDelayS() : model_.spec(nextSpecs_[p]);
    if (std::isnan(c) || c < 0.0) {
      throw InvalidArgumentError("compileGraph: negative or NaN link cost");
    }
    nextCosts_[p] = c;
  }
}

std::shared_ptr<const CompactGraph> IncrementalTopology::rebuildFromSpecs() const {
  auto g = std::make_shared<CompactGraph>();
  g->nodes_ = nodeTable_;  // shared, never copied
  const std::size_t n = nodeTable_->denseToNode.size();
  const std::size_t linkCount = nextSpecs_.size();

  const auto denseOf = [&](NodeId id) -> std::uint32_t {
    const CompactGraph::NodeTable& nt = *nodeTable_;
    if (id.value() < nt.idToDense.size() &&
        nt.idToDense[id.value()] != CompactGraph::kInvalidIndex) {
      return nt.idToDense[id.value()];
    }
    const auto it = nt.nodeToDense.find(id);
    OPENSPACE_ASSERT(it != nt.nodeToDense.end(),
                     "every spec endpoint is a template node");
    return it->second;
  };

  // Counting-sort CSR build. Walking specs in ascending position within
  // each row reproduces compileGraph's per-node adjacency order exactly:
  // NetworkGraph::linksOf() lists links in addLink order, which is spec
  // order by construction.
  std::vector<std::uint32_t> degree(n, 0);
  std::size_t edgeCount = 0;
  for (std::size_t p = 0; p < linkCount; ++p) {
    if (std::isinf(nextCosts_[p])) continue;  // forbidden: dropped, both ways
    ++degree[denseOf(nextSpecs_[p].a)];
    ++degree[denseOf(nextSpecs_[p].b)];
    edgeCount += 2;
  }
  g->rowOffset_.resize(n + 1);
  g->rowOffset_[0] = 0;
  for (std::size_t u = 0; u < n; ++u) {
    g->rowOffset_[u + 1] = g->rowOffset_[u] + degree[u];
  }
  g->edgeTo_.resize(edgeCount);
  g->edgeFrom_.resize(edgeCount);
  g->edgeCost_.resize(edgeCount);
  g->edgePropS_.resize(edgeCount);
  g->edgeQueueS_.resize(edgeCount);
  g->edgeCapBps_.resize(edgeCount);
  g->edgeLinkId_.resize(edgeCount);
  g->linkEdges_.resize(linkCount + 1);

  std::vector<std::uint32_t> fill(g->rowOffset_.begin(), g->rowOffset_.end() - 1);
  for (std::size_t p = 0; p < linkCount; ++p) {
    if (std::isinf(nextCosts_[p])) continue;
    const LinkSpec& spec = nextSpecs_[p];
    const std::uint32_t ua = denseOf(spec.a);
    const std::uint32_t ub = denseOf(spec.b);
    const LinkId lid{static_cast<LinkId::rep_type>(p + 1)};
    const std::uint32_t ea = fill[ua]++;
    const std::uint32_t eb = fill[ub]++;
    const auto place = [&](std::uint32_t e, std::uint32_t from, std::uint32_t to) {
      g->edgeTo_[e] = to;
      g->edgeFrom_[e] = from;
      g->edgeCost_[e] = nextCosts_[p];
      g->edgePropS_[e] = spec.propagationDelayS;
      g->edgeQueueS_[e] = spec.queueingDelayS;
      g->edgeCapBps_[e] = spec.capacityBps;
      g->edgeLinkId_[e] = lid;
    };
    place(ea, ua, ub);
    place(eb, ub, ua);
    CompactGraph::LinkEdgeRange& r = g->linkEdges_[p + 1];
    r.count = 2;
    r.e[0] = std::min(ea, eb);  // compileGraph records edges in ascending
    r.e[1] = std::max(ea, eb);  // edge-index order
  }
  return g;
}

std::shared_ptr<const CompactGraph> IncrementalTopology::patchCosts(
    const std::vector<std::uint32_t>& changed) const {
  auto g = std::make_shared<CompactGraph>(*graph_);
  for (const std::uint32_t p : changed) {
    const LinkSpec& spec = nextSpecs_[p];
    const CompactGraph::LinkEdgeRange r = g->linkEdges_[p + 1];
    for (const std::uint32_t e : r) {
      g->edgeCost_[e] = nextCosts_[p];
      g->edgePropS_[e] = spec.propagationDelayS;
      g->edgeQueueS_[e] = spec.queueingDelayS;
      g->edgeCapBps_[e] = spec.capacityBps;
    }
  }
  return g;
}

void IncrementalTopology::diffStructural() {
  std::unordered_map<std::uint64_t, std::uint32_t> prevByPair;
  prevByPair.reserve(specs_.size());
  for (std::size_t p = 0; p < specs_.size(); ++p) {
    prevByPair.emplace(pairKey(specs_[p].a, specs_[p].b),
                       static_cast<std::uint32_t>(p));
  }
  for (const LinkSpec& spec : nextSpecs_) {
    const auto it = prevByPair.find(pairKey(spec.a, spec.b));
    if (it == prevByPair.end()) {
      ++delta_.addedLinks;
      continue;
    }
    if (samePayload(specs_[it->second], spec)) {
      ++delta_.unchangedLinks;
    } else {
      ++delta_.costChangedLinks;
    }
    prevByPair.erase(it);
  }
  delta_.removedLinks = prevByPair.size();
}

const TopologyDelta& IncrementalTopology::step(double tSeconds) {
  const auto snap = SnapshotCache::global().at(builder_.ephemeris(), tSeconds);
  links_.enumerate(*snap, nextSpecs_);
  evaluateCosts();

  delta_ = TopologyDelta{};
  delta_.tSeconds = tSeconds;
  delta_.linkCount = nextSpecs_.size();

  if (!graph_) {
    delta_.structural = true;
    delta_.addedLinks = nextSpecs_.size();
    graph_ = rebuildFromSpecs();
  } else {
    bool structural = nextSpecs_.size() != specs_.size();
    changedSpecs_.clear();
    if (!structural) {
      for (std::size_t p = 0; p < nextSpecs_.size(); ++p) {
        if (!sameStructure(specs_[p], nextSpecs_[p]) ||
            std::isinf(costs_[p]) != std::isinf(nextCosts_[p])) {
          structural = true;
          break;
        }
        if (!samePayload(specs_[p], nextSpecs_[p]) ||
            bitsOf(costs_[p]) != bitsOf(nextCosts_[p])) {
          changedSpecs_.push_back(static_cast<std::uint32_t>(p));
        }
      }
    }
    if (structural) {
      delta_.structural = true;
      diffStructural();
      graph_ = rebuildFromSpecs();
    } else {
      delta_.costChangedLinks = changedSpecs_.size();
      delta_.unchangedLinks = nextSpecs_.size() - changedSpecs_.size();
      if (!changedSpecs_.empty()) {
        graph_ = patchCosts(changedSpecs_);
      }
      // else: bitwise-identical step (repeated timestamp) — share the
      // previous graph as-is.
    }
  }

  specs_.swap(nextSpecs_);
  costs_.swap(nextCosts_);
  ++steps_;
  return delta_;
}

}  // namespace openspace

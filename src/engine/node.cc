#include "engine/node.h"

namespace hermes::engine {

Node::Node(NodeId id, sim::Simulator* sim, int num_workers)
    : id_(id), workers_(sim, num_workers) {}

}  // namespace hermes::engine

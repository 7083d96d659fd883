#include "pdr/tpr/tpr_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "pdr/obs/obs.h"
#include "pdr/storage/disk_pager.h"
#include "pdr/storage/serde.h"

namespace pdr {

// ---------------------------------------------------------------------------
// Tpbr

Tpbr Tpbr::ForObject(const MotionState& state) {
  Tpbr box;
  box.rect = Rect(state.pos.x, state.pos.y, state.pos.x, state.pos.y);
  box.vx_lo = box.vx_hi = state.vel.x;
  box.vy_lo = box.vy_hi = state.vel.y;
  box.t_ref = state.t_ref;
  return box;
}

Tpbr Tpbr::Union(const Tpbr& a, const Tpbr& b) {
  Tpbr out;
  out.t_ref = std::max(a.t_ref, b.t_ref);
  const Rect ra = a.RectAt(out.t_ref);
  const Rect rb = b.RectAt(out.t_ref);
  out.rect = ra.Union(rb);
  out.vx_lo = std::min(a.vx_lo, b.vx_lo);
  out.vy_lo = std::min(a.vy_lo, b.vy_lo);
  out.vx_hi = std::max(a.vx_hi, b.vx_hi);
  out.vy_hi = std::max(a.vy_hi, b.vy_hi);
  return out;
}

bool Tpbr::Covers(const Tpbr& o) const {
  const Tick t0 = std::max(t_ref, o.t_ref);
  const Rect mine = RectAt(t0);
  const Rect theirs = o.RectAt(t0);
  const double eps = kGeomEps;
  return mine.x_lo <= theirs.x_lo + eps && mine.y_lo <= theirs.y_lo + eps &&
         mine.x_hi >= theirs.x_hi - eps && mine.y_hi >= theirs.y_hi - eps &&
         vx_lo <= o.vx_lo + eps && vy_lo <= o.vy_lo + eps &&
         vx_hi >= o.vx_hi - eps && vy_hi >= o.vy_hi - eps;
}

double Tpbr::IntegratedArea(double t0, double horizon) const {
  // Trapezoid-free uniform sampling: the integrand is piecewise quadratic
  // and monotone in practice; five samples rank candidates reliably.
  double total = 0;
  for (int i = 0; i < kAreaSamples; ++i) {
    const double t =
        t0 + horizon * static_cast<double>(i) / (kAreaSamples - 1);
    total += RectAt(t).Area();
  }
  return total / kAreaSamples * horizon;
}

// ---------------------------------------------------------------------------
// On-page layout

struct TprTree::NodeHeader {
  uint8_t is_leaf = 0;
  uint8_t pad = 0;
  uint16_t count = 0;
  PageId parent = kInvalidPageId;
};

struct TprTree::LeafEntry {
  double x, y, vx, vy;
  Tick t_ref;
  ObjectId id;

  MotionState ToState() const { return {{x, y}, {vx, vy}, t_ref}; }
  static LeafEntry From(ObjectId oid, const MotionState& s) {
    return {s.pos.x, s.pos.y, s.vel.x, s.vel.y, s.t_ref, oid};
  }
  Tpbr Box() const { return Tpbr::ForObject(ToState()); }
};

struct TprTree::InternalEntry {
  double x_lo, y_lo, x_hi, y_hi;
  double vx_lo, vy_lo, vx_hi, vy_hi;
  Tick t_ref;
  PageId child;

  Tpbr Box() const {
    return Tpbr{Rect(x_lo, y_lo, x_hi, y_hi), vx_lo, vy_lo, vx_hi, vy_hi,
                t_ref};
  }
  static InternalEntry From(const Tpbr& b, PageId child_id) {
    return {b.rect.x_lo, b.rect.y_lo, b.rect.x_hi, b.rect.y_hi,
            b.vx_lo,     b.vy_lo,     b.vx_hi,     b.vy_hi,
            b.t_ref,     child_id};
  }
};

namespace {

constexpr size_t kHeaderSize = 8;

}  // namespace

static constexpr size_t kLeafCapacity =
    (kPageSize - kHeaderSize) / sizeof(TprTree::LeafEntry);
static constexpr size_t kInternalCapacity =
    (kPageSize - kHeaderSize) / sizeof(TprTree::InternalEntry);

namespace {

struct LeafLayout {
  TprTree::NodeHeader header;
  TprTree::LeafEntry entries[kLeafCapacity];
};
struct InternalLayout {
  TprTree::NodeHeader header;
  TprTree::InternalEntry entries[kInternalCapacity];
};
static_assert(sizeof(LeafLayout) <= kPageSize);
static_assert(sizeof(InternalLayout) <= kPageSize);

constexpr size_t kLeafMinFill = kLeafCapacity * 2 / 5;
constexpr size_t kInternalMinFill = kInternalCapacity * 2 / 5;

// Sort keys used by the split heuristic: low edge of the rectangle at the
// start and at the end of the optimization horizon, per axis.
enum class SplitKey { kXNow, kXLater, kYNow, kYLater };

double KeyOf(const Tpbr& box, SplitKey key, double now, double horizon) {
  switch (key) {
    case SplitKey::kXNow:
      return box.RectAt(now).x_lo;
    case SplitKey::kXLater:
      return box.RectAt(now + horizon).x_lo;
    case SplitKey::kYNow:
      return box.RectAt(now).y_lo;
    case SplitKey::kYLater:
      return box.RectAt(now + horizon).y_lo;
  }
  return 0;
}

// Splits `boxes` (paired with opaque payload indices) into two groups
// minimizing the summed integrated TPBR area. Returns indices of the
// second group; the first group is the complement.
std::vector<size_t> PickSplit(const std::vector<Tpbr>& boxes, size_t min_fill,
                              double now, double horizon) {
  const size_t n = boxes.size();
  assert(n >= 2 * min_fill && n >= 2);
  std::vector<size_t> order(n);
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<size_t> best_second;

  for (SplitKey key : {SplitKey::kXNow, SplitKey::kXLater, SplitKey::kYNow,
                       SplitKey::kYLater}) {
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return KeyOf(boxes[a], key, now, horizon) <
             KeyOf(boxes[b], key, now, horizon);
    });
    // Prefix/suffix unions of the sorted sequence.
    std::vector<Tpbr> prefix(n), suffix(n);
    prefix[0] = boxes[order[0]];
    for (size_t i = 1; i < n; ++i) {
      prefix[i] = Tpbr::Union(prefix[i - 1], boxes[order[i]]);
    }
    suffix[n - 1] = boxes[order[n - 1]];
    for (size_t i = n - 1; i-- > 0;) {
      suffix[i] = Tpbr::Union(suffix[i + 1], boxes[order[i]]);
    }
    for (size_t k = min_fill; k + min_fill <= n; ++k) {
      const double cost = prefix[k - 1].IntegratedArea(now, horizon) +
                          suffix[k].IntegratedArea(now, horizon);
      if (cost < best_cost) {
        best_cost = cost;
        best_second.assign(order.begin() + k, order.end());
      }
    }
  }
  return best_second;
}

}  // namespace

// ---------------------------------------------------------------------------
// TprTree

namespace {

constexpr uint32_t kTprMetaMagic = 0x4d525054u;  // "TPRM"

std::unique_ptr<Pager> MakeTreePager(const TprTree::Options& options) {
  if (options.external_pager != nullptr) {
    if (!options.storage_dir.empty()) {
      throw std::invalid_argument(
          "TprTree: external_pager and storage_dir are mutually exclusive");
    }
    return nullptr;  // caller-owned store
  }
  if (options.storage_dir.empty()) return std::make_unique<MemPager>();
  return std::make_unique<DiskPager>(options.storage_dir,
                                     options.fault_injector);
}

}  // namespace

TprTree::TprTree(const Options& options)
    : pager_(MakeTreePager(options)),
      pool_(options.external_pager != nullptr ? options.external_pager
                                              : pager_.get(),
            options.buffer_pages),
      options_(options) {
  disk_ = dynamic_cast<DiskPager*>(pager_.get());
  if (disk_ != nullptr && disk_->recovered()) {
    RestoreMeta(disk_->recovered_meta());
  }
}

bool TprTree::recovered() const {
  return disk_ != nullptr && disk_->recovered();
}

std::string TprTree::SerializeMeta(const std::string& app_meta) const {
  std::string out;
  PutPod(&out, kTprMetaMagic);
  PutPod(&out, now_);
  PutPod(&out, root_);
  PutPod(&out, static_cast<int32_t>(height_));
  PutPod(&out, static_cast<uint64_t>(node_count_));
  // Sorted by object id so the checkpoint bytes are a pure function of the
  // logical tree state, not of hash-map iteration order.
  std::vector<std::pair<ObjectId, PageId>> entries(leaf_of_.begin(),
                                                   leaf_of_.end());
  std::sort(entries.begin(), entries.end());
  PutPod(&out, static_cast<uint64_t>(entries.size()));
  for (const auto& [id, leaf] : entries) {
    PutPod(&out, id);
    PutPod(&out, leaf);
  }
  PutBlob(&out, app_meta);
  return out;
}

void TprTree::RestoreMeta(const std::string& blob) {
  ByteReader reader(blob);
  if (reader.Get<uint32_t>() != kTprMetaMagic) {
    throw std::runtime_error(
        "recovered store does not hold a TPR-tree (index kind mismatch?)");
  }
  now_ = reader.Get<Tick>();
  root_ = reader.Get<PageId>();
  height_ = reader.Get<int32_t>();
  node_count_ = reader.Get<uint64_t>();
  const uint64_t objects = reader.Get<uint64_t>();
  leaf_of_.clear();
  leaf_of_.reserve(objects);
  for (uint64_t i = 0; i < objects; ++i) {
    const ObjectId id = reader.Get<ObjectId>();
    const PageId leaf = reader.Get<PageId>();
    leaf_of_.emplace(id, leaf);
  }
  recovered_app_meta_ = std::string(reader.GetBlob());
}

void TprTree::Checkpoint(const std::string& app_meta) {
  if (disk_ == nullptr) return;
  pool_.FlushAll();  // drain the dirty-page table into the store
  disk_->Checkpoint(SerializeMeta(app_meta));
}

void TprTree::AdvanceTo(Tick now) {
  assert(now >= now_);
  now_ = now;
}

void TprTree::Apply(const UpdateEvent& update) {
  if (update.old_state) {
    const bool removed = Delete(update.id);
    assert(removed && "update deletes an object that is not indexed");
    (void)removed;
  }
  if (update.new_state) Insert(update.id, *update.new_state);
}

Tpbr TprTree::NodeTpbr(PageId node_id) {
  auto ref = pool_.Fetch(node_id);
  const NodeHeader* header = ref->As<NodeHeader>();
  assert(header->count > 0);
  Tpbr box;
  if (header->is_leaf) {
    const auto* node = ref->As<LeafLayout>();
    box = node->entries[0].Box();
    for (uint16_t i = 1; i < header->count; ++i) {
      box = Tpbr::Union(box, node->entries[i].Box());
    }
  } else {
    const auto* node = ref->As<InternalLayout>();
    box = node->entries[0].Box();
    for (uint16_t i = 1; i < header->count; ++i) {
      box = Tpbr::Union(box, node->entries[i].Box());
    }
  }
  // Re-reference to the current clock so repeated tightening cannot leave
  // stale reference ticks behind.
  if (box.t_ref < now_) {
    box.rect = box.RectAt(now_);
    box.t_ref = now_;
  }
  return box;
}

void TprTree::Insert(ObjectId id, const MotionState& state) {
  assert(leaf_of_.find(id) == leaf_of_.end() && "duplicate insert");
  if (root_ == kInvalidPageId) {
    auto ref = pool_.Create(&root_);
    auto* node = ref->As<LeafLayout>();
    node->header = NodeHeader{1, 0, 0, kInvalidPageId};
    height_ = 1;
    node_count_ = 1;
  }
  InsertEntry(id, Tpbr::ForObject(state), state);
}

PageId TprTree::ChooseLeaf(const Tpbr& box, std::vector<PageId>* path) {
  PageId node_id = root_;
  while (true) {
    auto ref = pool_.Fetch(node_id);
    const NodeHeader* header = ref->As<NodeHeader>();
    if (header->is_leaf) return node_id;
    if (path != nullptr) path->push_back(node_id);
    auto mut = std::move(ref);
    auto* node = mut->As<InternalLayout>();
    // Choose the child whose integrated area grows least.
    int best = 0;
    double best_delta = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (uint16_t i = 0; i < node->header.count; ++i) {
      const Tpbr child_box = node->entries[i].Box();
      const double area = child_box.IntegratedArea(now_, options_.horizon);
      const double grown = Tpbr::Union(child_box, box)
                               .IntegratedArea(now_, options_.horizon);
      const double delta = grown - area;
      if (delta < best_delta - kGeomEps ||
          (std::fabs(delta - best_delta) <= kGeomEps && area < best_area)) {
        best = i;
        best_delta = delta;
        best_area = area;
      }
    }
    // Expand the chosen entry to cover the new box.
    InternalEntry& entry = node->entries[best];
    if (!entry.Box().Covers(box)) {
      const Tpbr merged = Tpbr::Union(entry.Box(), box);
      const PageId child = entry.child;
      entry = InternalEntry::From(merged, child);
      mut.MarkDirty();
    }
    node_id = entry.child;
  }
}

void TprTree::InsertEntry(ObjectId id, const Tpbr& box,
                          const MotionState& state) {
  std::vector<PageId> path;
  const PageId leaf_id = ChooseLeaf(box, &path);
  auto ref = pool_.FetchMut(leaf_id);
  auto* node = ref->As<LeafLayout>();
  if (node->header.count < kLeafCapacity) {
    node->entries[node->header.count++] = LeafEntry::From(id, state);
    leaf_of_[id] = leaf_id;
    return;
  }
  ref.Reset();
  SplitLeaf(leaf_id, id, state, path);
}

void TprTree::SplitLeaf(PageId leaf_id, ObjectId id, const MotionState& state,
                        const std::vector<PageId>& path) {
  std::vector<LeafEntry> items;
  {
    auto ref = pool_.Fetch(leaf_id);
    const auto* node = ref->As<LeafLayout>();
    items.assign(node->entries, node->entries + node->header.count);
  }
  items.push_back(LeafEntry::From(id, state));

  std::vector<Tpbr> boxes;
  boxes.reserve(items.size());
  for (const LeafEntry& e : items) boxes.push_back(e.Box());
  const std::vector<size_t> second =
      PickSplit(boxes, kLeafMinFill, now_, options_.horizon);
  std::vector<bool> in_second(items.size(), false);
  for (size_t idx : second) in_second[idx] = true;

  PageId sibling_id = kInvalidPageId;
  {
    auto sib = pool_.Create(&sibling_id);
    auto* sib_node = sib->As<LeafLayout>();
    sib_node->header = NodeHeader{1, 0, 0, kInvalidPageId};
    auto ref = pool_.FetchMut(leaf_id);
    auto* node = ref->As<LeafLayout>();
    node->header.count = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      if (in_second[i]) {
        sib_node->entries[sib_node->header.count++] = items[i];
        leaf_of_[items[i].id] = sibling_id;
      } else {
        node->entries[node->header.count++] = items[i];
        leaf_of_[items[i].id] = leaf_id;
      }
    }
    assert(node->header.count > 0 && sib_node->header.count > 0);
  }
  ++node_count_;

  const Tpbr sibling_box = NodeTpbr(sibling_id);
  if (leaf_id == root_) {
    // Grow a new internal root over the two leaves.
    PageId new_root = kInvalidPageId;
    auto root_ref = pool_.Create(&new_root);
    auto* root_node = root_ref->As<InternalLayout>();
    root_node->header = NodeHeader{0, 0, 2, kInvalidPageId};
    root_node->entries[0] = InternalEntry::From(NodeTpbr(leaf_id), leaf_id);
    root_node->entries[1] = InternalEntry::From(sibling_box, sibling_id);
    for (PageId child : {leaf_id, sibling_id}) {
      auto child_ref = pool_.FetchMut(child);
      child_ref->As<NodeHeader>()->parent = new_root;
    }
    root_ = new_root;
    ++height_;
    ++node_count_;
    return;
  }
  RefreshParentEntry(leaf_id);
  const PageId parent = path.back();
  {
    auto sib = pool_.FetchMut(sibling_id);
    sib->As<NodeHeader>()->parent = parent;
  }
  InstallEntry(InternalEntry::From(sibling_box, sibling_id), path);
}

void TprTree::InstallEntry(const InternalEntry& entry,
                           std::vector<PageId> path) {
  assert(!path.empty());
  const PageId node_id = path.back();
  path.pop_back();
  auto ref = pool_.FetchMut(node_id);
  auto* node = ref->As<InternalLayout>();
  if (node->header.count < kInternalCapacity) {
    node->entries[node->header.count++] = entry;
    return;
  }
  ref.Reset();
  SplitInternal(node_id, entry, std::move(path));
}

void TprTree::SplitInternal(PageId node_id, const InternalEntry& extra,
                            std::vector<PageId> path) {
  std::vector<InternalEntry> items;
  {
    auto ref = pool_.Fetch(node_id);
    const auto* node = ref->As<InternalLayout>();
    items.assign(node->entries, node->entries + node->header.count);
  }
  items.push_back(extra);

  std::vector<Tpbr> boxes;
  boxes.reserve(items.size());
  for (const InternalEntry& e : items) boxes.push_back(e.Box());
  const std::vector<size_t> second =
      PickSplit(boxes, kInternalMinFill, now_, options_.horizon);
  std::vector<bool> in_second(items.size(), false);
  for (size_t idx : second) in_second[idx] = true;

  PageId sibling_id = kInvalidPageId;
  {
    auto sib = pool_.Create(&sibling_id);
    auto* sib_node = sib->As<InternalLayout>();
    sib_node->header = NodeHeader{0, 0, 0, kInvalidPageId};
    auto ref = pool_.FetchMut(node_id);
    auto* node = ref->As<InternalLayout>();
    node->header.count = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      if (in_second[i]) {
        sib_node->entries[sib_node->header.count++] = items[i];
      } else {
        node->entries[node->header.count++] = items[i];
      }
    }
    assert(node->header.count > 0 && sib_node->header.count > 0);
  }
  ++node_count_;
  // Re-point moved children at the sibling.
  {
    auto sib = pool_.Fetch(sibling_id);
    const auto* sib_node = sib->As<InternalLayout>();
    std::vector<PageId> moved;
    for (uint16_t i = 0; i < sib_node->header.count; ++i) {
      moved.push_back(sib_node->entries[i].child);
    }
    sib.Reset();
    for (PageId child : moved) {
      auto child_ref = pool_.FetchMut(child);
      child_ref->As<NodeHeader>()->parent = sibling_id;
    }
  }

  const Tpbr sibling_box = NodeTpbr(sibling_id);
  if (node_id == root_) {
    PageId new_root = kInvalidPageId;
    auto root_ref = pool_.Create(&new_root);
    auto* root_node = root_ref->As<InternalLayout>();
    root_node->header = NodeHeader{0, 0, 2, kInvalidPageId};
    root_node->entries[0] = InternalEntry::From(NodeTpbr(node_id), node_id);
    root_node->entries[1] = InternalEntry::From(sibling_box, sibling_id);
    for (PageId child : {node_id, sibling_id}) {
      auto child_ref = pool_.FetchMut(child);
      child_ref->As<NodeHeader>()->parent = new_root;
    }
    root_ = new_root;
    ++height_;
    ++node_count_;
    return;
  }
  RefreshParentEntry(node_id);
  PageId parent;
  {
    auto ref = pool_.Fetch(node_id);
    parent = ref->As<NodeHeader>()->parent;
  }
  {
    auto sib = pool_.FetchMut(sibling_id);
    sib->As<NodeHeader>()->parent = parent;
  }
  if (path.empty() || path.back() != parent) path.push_back(parent);
  InstallEntry(InternalEntry::From(sibling_box, sibling_id), std::move(path));
}

void TprTree::RefreshParentEntry(PageId child_id) {
  while (child_id != root_) {
    PageId parent;
    {
      auto child = pool_.Fetch(child_id);
      parent = child->As<NodeHeader>()->parent;
    }
    assert(parent != kInvalidPageId);
    const Tpbr tight = NodeTpbr(child_id);
    auto ref = pool_.FetchMut(parent);
    auto* node = ref->As<InternalLayout>();
    bool found = false;
    for (uint16_t i = 0; i < node->header.count; ++i) {
      if (node->entries[i].child == child_id) {
        node->entries[i] = InternalEntry::From(tight, child_id);
        found = true;
        break;
      }
    }
    assert(found && "child missing from parent node");
    (void)found;
    child_id = parent;
  }
}

bool TprTree::Delete(ObjectId id) {
  auto it = leaf_of_.find(id);
  if (it == leaf_of_.end()) return false;
  PageId node_id = it->second;
  leaf_of_.erase(it);
  {
    auto ref = pool_.FetchMut(node_id);
    auto* node = ref->As<LeafLayout>();
    bool found = false;
    for (uint16_t i = 0; i < node->header.count; ++i) {
      if (node->entries[i].id == id) {
        node->entries[i] = node->entries[node->header.count - 1];
        --node->header.count;
        found = true;
        break;
      }
    }
    assert(found && "leaf map points to a leaf without the object");
    (void)found;
  }
  // Remove empty nodes bottom-up; tighten surviving ancestors.
  while (node_id != root_) {
    PageId parent;
    uint16_t count;
    {
      auto ref = pool_.Fetch(node_id);
      const auto* header = ref->As<NodeHeader>();
      parent = header->parent;
      count = header->count;
    }
    if (count > 0) {
      RefreshParentEntry(node_id);
      break;
    }
    {
      auto ref = pool_.FetchMut(parent);
      auto* node = ref->As<InternalLayout>();
      for (uint16_t i = 0; i < node->header.count; ++i) {
        if (node->entries[i].child == node_id) {
          node->entries[i] = node->entries[node->header.count - 1];
          --node->header.count;
          break;
        }
      }
    }
    pool_.Free(node_id);
    --node_count_;
    node_id = parent;
  }
  // Collapse a chain of single-child internal roots.
  while (true) {
    auto ref = pool_.Fetch(root_);
    const auto* header = ref->As<NodeHeader>();
    if (header->is_leaf) break;
    if (header->count == 0) {
      // Tree became empty.
      ref.Reset();
      pool_.Free(root_);
      --node_count_;
      root_ = kInvalidPageId;
      height_ = 1;
      break;
    }
    if (header->count > 1) break;
    const PageId only_child = ref->As<InternalLayout>()->entries[0].child;
    ref.Reset();
    pool_.Free(root_);
    --node_count_;
    root_ = only_child;
    --height_;
    auto child_ref = pool_.FetchMut(root_);
    child_ref->As<NodeHeader>()->parent = kInvalidPageId;
  }
  return true;
}

std::vector<std::pair<ObjectId, MotionState>> TprTree::RangeQuery(
    const Rect& window, Tick t) const {
  const auto out = RangeQueryFrom(pool_, root_, window, t);
  // Tree-shape gauges for the monitor report / cost calibration: refreshed
  // per query so they track splits and condensations without a hook in
  // every structural operation.
  static Gauge& height_gauge =
      MetricsRegistry::Global().GetGauge("pdr.tpr.height");
  static Gauge& pages_gauge =
      MetricsRegistry::Global().GetGauge("pdr.tpr.node_pages");
  height_gauge.Set(static_cast<double>(height_));
  pages_gauge.Set(static_cast<double>(node_count_));
  return out;
}

std::vector<std::pair<ObjectId, MotionState>> TprTree::RangeQueryFrom(
    BufferPool& pool, PageId root, const Rect& window, Tick t) {
  static Counter& queries =
      MetricsRegistry::Global().GetCounter("pdr.tpr.range_queries");
  static Counter& nodes_counter =
      MetricsRegistry::Global().GetCounter("pdr.tpr.nodes_visited");
  queries.Increment();
  int64_t nodes_visited = 0;

  std::vector<std::pair<ObjectId, MotionState>> out;
  if (root == kInvalidPageId) return out;
  std::vector<PageId> stack{root};
  while (!stack.empty()) {
    const PageId node_id = stack.back();
    stack.pop_back();
    ++nodes_visited;
    auto ref = pool.Fetch(node_id);
    const NodeHeader* header = ref->As<NodeHeader>();
    if (header->is_leaf) {
      const auto* node = ref->As<LeafLayout>();
      for (uint16_t i = 0; i < header->count; ++i) {
        const MotionState state = node->entries[i].ToState();
        if (window.ContainsClosed(state.PositionAt(t))) {
          out.emplace_back(node->entries[i].id, state);
        }
      }
    } else {
      const auto* node = ref->As<InternalLayout>();
      for (uint16_t i = 0; i < header->count; ++i) {
        if (node->entries[i].Box().RectAt(t).IntersectsClosed(window)) {
          stack.push_back(node->entries[i].child);
        }
      }
    }
  }
  nodes_counter.Add(nodes_visited);
  return out;
}

void TprTree::CheckInvariants() {
  if (root_ == kInvalidPageId) {
    if (!leaf_of_.empty()) throw std::logic_error("empty tree with leaf map");
    return;
  }
  size_t leaf_entries = 0;
  struct Item {
    PageId id;
    int depth;
  };
  std::vector<Item> stack{{root_, 1}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    auto ref = pool_.Fetch(item.id);
    const NodeHeader* header = ref->As<NodeHeader>();
    if (item.id == root_) {
      if (header->parent != kInvalidPageId) {
        throw std::logic_error("root has a parent");
      }
    }
    if (header->is_leaf) {
      if (item.depth != height_) {
        throw std::logic_error("leaf at wrong depth");
      }
      const auto* node = ref->As<LeafLayout>();
      for (uint16_t i = 0; i < header->count; ++i) {
        ++leaf_entries;
        auto it = leaf_of_.find(node->entries[i].id);
        if (it == leaf_of_.end() || it->second != item.id) {
          throw std::logic_error("leaf map out of sync");
        }
      }
    } else {
      const auto* node = ref->As<InternalLayout>();
      if (header->count == 0) throw std::logic_error("empty internal node");
      std::vector<std::pair<InternalEntry, PageId>> children;
      for (uint16_t i = 0; i < header->count; ++i) {
        children.emplace_back(node->entries[i], node->entries[i].child);
      }
      ref.Reset();
      for (const auto& [entry, child_id] : children) {
        {
          auto child = pool_.Fetch(child_id);
          if (child->As<NodeHeader>()->parent != item.id) {
            throw std::logic_error("bad parent pointer");
          }
        }
        const Tpbr actual = NodeTpbr(child_id);
        const Tpbr declared = entry.Box();
        for (int s = 0; s <= 4; ++s) {
          const double t = static_cast<double>(now_) +
                           options_.horizon * (static_cast<double>(s) / 4.0);
          const Rect outer = declared.RectAt(t);
          const Rect inner = actual.RectAt(t);
          if (!(outer.x_lo <= inner.x_lo + 1e-6 &&
                outer.y_lo <= inner.y_lo + 1e-6 &&
                outer.x_hi >= inner.x_hi - 1e-6 &&
                outer.y_hi >= inner.y_hi - 1e-6)) {
            throw std::logic_error("parent TPBR does not cover child");
          }
        }
        stack.push_back({child_id, item.depth + 1});
      }
    }
  }
  if (leaf_entries != leaf_of_.size()) {
    throw std::logic_error("leaf entry count mismatch");
  }
}

}  // namespace pdr

#include "db/btree.h"

#include <cstring>
#include <memory>

namespace postblock::db {

namespace {

// --- node layout helpers -------------------------------------------------
//
// Leaf:     [0] type  [2..3] count  [8..15] next-leaf page id
//           entries at 16: (key u64, value u64) sorted by key
// Internal: [0] type  [2..3] count (= number of separator keys)
//           slot i at 16+i*16: (child_i u64, key_i u64); the final slot
//           holds child_count only.

std::uint16_t NodeCount(const Frame* f) {
  std::uint16_t v;
  std::memcpy(&v, f->bytes.data() + 2, 2);
  return v;
}

void SetNodeCount(Frame* f, std::uint16_t v) {
  std::memcpy(f->bytes.data() + 2, &v, 2);
}

PageType NodeType(const Frame* f) {
  return static_cast<PageType>(f->bytes[0]);
}

std::uint64_t ReadU64(const Frame* f, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, f->bytes.data() + off, 8);
  return v;
}

void WriteU64(Frame* f, std::size_t off, std::uint64_t v) {
  std::memcpy(f->bytes.data() + off, &v, 8);
}

// Leaf accessors.
std::uint64_t LeafKey(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 16 + std::size_t{i} * 16);
}
std::uint64_t LeafValue(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 24 + std::size_t{i} * 16);
}
void SetLeafEntry(Frame* f, std::uint32_t i, std::uint64_t key,
                  std::uint64_t value) {
  WriteU64(f, 16 + std::size_t{i} * 16, key);
  WriteU64(f, 24 + std::size_t{i} * 16, value);
}
PageId LeafNext(const Frame* f) { return ReadU64(f, 8); }
void SetLeafNext(Frame* f, PageId next) { WriteU64(f, 8, next); }

// First index with key(i) >= key.
std::uint32_t LeafLowerBound(const Frame* f, std::uint64_t key) {
  std::uint32_t lo = 0;
  std::uint32_t hi = NodeCount(f);
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (LeafKey(f, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void LeafInsertAt(Frame* f, std::uint32_t pos, std::uint64_t key,
                  std::uint64_t value) {
  const std::uint16_t count = NodeCount(f);
  std::memmove(f->bytes.data() + 16 + (std::size_t{pos} + 1) * 16,
               f->bytes.data() + 16 + std::size_t{pos} * 16,
               (count - pos) * std::size_t{16});
  SetLeafEntry(f, pos, key, value);
  SetNodeCount(f, count + 1);
}

void LeafRemoveAt(Frame* f, std::uint32_t pos) {
  const std::uint16_t count = NodeCount(f);
  std::memmove(f->bytes.data() + 16 + std::size_t{pos} * 16,
               f->bytes.data() + 16 + (std::size_t{pos} + 1) * 16,
               (count - pos - 1) * std::size_t{16});
  SetNodeCount(f, count - 1);
}

// Internal accessors.
std::uint64_t InternalKey(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 24 + std::size_t{i} * 16);
}
PageId InternalChild(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 16 + std::size_t{i} * 16);
}
void SetInternalKey(Frame* f, std::uint32_t i, std::uint64_t key) {
  WriteU64(f, 24 + std::size_t{i} * 16, key);
}
void SetInternalChild(Frame* f, std::uint32_t i, PageId child) {
  WriteU64(f, 16 + std::size_t{i} * 16, child);
}

// Child index to descend into for `key`: first i with key < key_i.
std::uint32_t InternalFindIndex(const Frame* f, std::uint64_t key) {
  std::uint32_t lo = 0;
  std::uint32_t hi = NodeCount(f);
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (key < InternalKey(f, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Inserts separator `key` and right child after child index `idx`.
// Keys shift from idx and children from idx+1 — different ranges, so
// they move as separate arrays, not as interleaved slot pairs.
void InternalInsertAfter(Frame* f, std::uint32_t idx, std::uint64_t key,
                         PageId right) {
  const std::uint16_t count = NodeCount(f);
  for (std::uint32_t j = count; j > idx; --j) {
    SetInternalKey(f, j, InternalKey(f, j - 1));
  }
  for (std::uint32_t j = count + 1; j > idx + 1; --j) {
    SetInternalChild(f, j, InternalChild(f, j - 1));
  }
  SetInternalKey(f, idx, key);
  SetInternalChild(f, idx + 1, right);
  SetNodeCount(f, count + 1);
}

void FormatLeaf(Frame* f) {
  std::fill(f->bytes.begin(), f->bytes.end(), 0);
  f->bytes[0] = static_cast<std::uint8_t>(PageType::kBTreeLeaf);
  SetLeafNext(f, kInvalidPageId);
}

void FormatInternal(Frame* f) {
  std::fill(f->bytes.begin(), f->bytes.end(), 0);
  f->bytes[0] = static_cast<std::uint8_t>(PageType::kBTreeInternal);
}

bool IsFull(const Frame* f) {
  if (NodeType(f) == PageType::kBTreeLeaf) {
    return NodeCount(f) >= BTree::kLeafCapacity;
  }
  return NodeCount(f) >= BTree::kInternalCapacity;
}

// Splits `left` (full) into `right` (freshly formatted), returning the
// separator key for the parent.
std::uint64_t SplitNode(Frame* left, Frame* right) {
  const std::uint16_t count = NodeCount(left);
  if (NodeType(left) == PageType::kBTreeLeaf) {
    FormatLeaf(right);
    const std::uint16_t keep = count / 2;
    const std::uint16_t moved = count - keep;
    std::memcpy(right->bytes.data() + 16,
                left->bytes.data() + 16 + std::size_t{keep} * 16,
                std::size_t{moved} * 16);
    SetNodeCount(right, moved);
    SetNodeCount(left, keep);
    SetLeafNext(right, LeafNext(left));
    SetLeafNext(left, right->id);
    return LeafKey(right, 0);
  }
  FormatInternal(right);
  const std::uint16_t mid = count / 2;
  const std::uint64_t separator = InternalKey(left, mid);
  const std::uint16_t moved = count - mid - 1;
  // Right gets children mid+1..count and keys mid+1..count-1.
  std::memcpy(right->bytes.data() + 16,
              left->bytes.data() + 16 + (std::size_t{mid} + 1) * 16,
              std::size_t{moved} * 16 + 8 /* trailing child */);
  SetNodeCount(right, moved);
  SetNodeCount(left, mid);
  return separator;
}

}  // namespace

BTree::BTree(sim::Simulator* sim, BufferPool* pool,
             std::function<PageId()> alloc_page)
    : sim_(sim), pool_(pool), alloc_page_(std::move(alloc_page)) {}

void BTree::Create(StatusCb cb) {
  const PageId root = alloc_page_();
  pool_->Pin(root, [this, root, cb = std::move(cb)](StatusOr<Frame*> f) {
    if (!f.ok()) {
      cb(f.status());
      return;
    }
    FormatLeaf(*f);
    root_ = root;
    pool_->Unpin(root, /*dirty=*/true);
    cb(Status::Ok());
  });
}

// --- Put -------------------------------------------------------------------

void BTree::Put(std::uint64_t key, std::uint64_t value, StatusCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("puts");
  pool_->Pin(root_, [this, key, value,
                     cb = std::move(cb)](StatusOr<Frame*> f) mutable {
    if (!f.ok()) {
      cb(f.status());
      return;
    }
    if (IsFull(*f)) {
      SplitRootAndRetryPut(*f, key, value, std::move(cb));
      return;
    }
    DescendPut(*f, key, value, std::move(cb));
  });
}

void BTree::SplitRootAndRetryPut(Frame* root, std::uint64_t key,
                                 std::uint64_t value, StatusCb cb) {
  counters_.Increment("root_splits");
  const PageId sibling_id = alloc_page_();
  const PageId new_root_id = alloc_page_();
  pool_->Pin(sibling_id, [this, root, sibling_id, new_root_id, key, value,
                          cb = std::move(cb)](StatusOr<Frame*> s) mutable {
    if (!s.ok()) {
      pool_->Unpin(root->id, false);
      cb(s.status());
      return;
    }
    Frame* sibling = *s;
    const std::uint64_t separator = SplitNode(root, sibling);
    pool_->Pin(new_root_id,
               [this, root, sibling, sibling_id, new_root_id, separator,
                key, value, cb = std::move(cb)](StatusOr<Frame*> nr) mutable {
                 if (!nr.ok()) {
                   pool_->Unpin(root->id, true);
                   pool_->Unpin(sibling->id, true);
                   cb(nr.status());
                   return;
                 }
                 Frame* new_root = *nr;
                 FormatInternal(new_root);
                 SetInternalChild(new_root, 0, root->id);
                 SetInternalKey(new_root, 0, separator);
                 SetInternalChild(new_root, 1, sibling_id);
                 SetNodeCount(new_root, 1);
                 root_ = new_root_id;
                 pool_->Unpin(root->id, true);
                 pool_->Unpin(sibling->id, true);
                 pool_->Unpin(new_root_id, true);
                 Put(key, value, std::move(cb));
               });
  });
}

void BTree::SplitChild(Frame* parent, std::uint32_t child_index,
                       Frame* child, StatusCb on_done) {
  counters_.Increment("node_splits");
  const PageId sibling_id = alloc_page_();
  pool_->Pin(sibling_id, [this, parent, child_index, child, sibling_id,
                          on_done = std::move(on_done)](
                             StatusOr<Frame*> s) mutable {
    if (!s.ok()) {
      pool_->Unpin(child->id, false);
      on_done(s.status());
      return;
    }
    Frame* sibling = *s;
    const std::uint64_t separator = SplitNode(child, sibling);
    InternalInsertAfter(parent, child_index, separator, sibling_id);
    pool_->MarkDirty(parent->id);
    pool_->Unpin(child->id, true);
    pool_->Unpin(sibling_id, true);
    on_done(Status::Ok());
  });
}

void BTree::DescendPut(Frame* node, std::uint64_t key, std::uint64_t value,
                       StatusCb cb) {
  // `node` is pinned and guaranteed non-full.
  if (NodeType(node) == PageType::kBTreeLeaf) {
    const std::uint32_t pos = LeafLowerBound(node, key);
    if (pos < NodeCount(node) && LeafKey(node, pos) == key) {
      SetLeafEntry(node, pos, key, value);  // overwrite
    } else {
      LeafInsertAt(node, pos, key, value);
    }
    pool_->Unpin(node->id, /*dirty=*/true);
    cb(Status::Ok());
    return;
  }
  const std::uint32_t idx = InternalFindIndex(node, key);
  const PageId child_id = InternalChild(node, idx);
  pool_->Pin(child_id, [this, node, idx, key, value,
                        cb = std::move(cb)](StatusOr<Frame*> c) mutable {
    if (!c.ok()) {
      pool_->Unpin(node->id, false);
      cb(c.status());
      return;
    }
    Frame* child = *c;
    if (IsFull(child)) {
      // Preemptive split (parent is non-full by induction), then try
      // this level again — the key may now belong in the new sibling.
      SplitChild(node, idx, child, [this, node, key, value,
                                    cb = std::move(cb)](Status st) mutable {
        if (!st.ok()) {
          pool_->Unpin(node->id, true);
          cb(std::move(st));
          return;
        }
        DescendPut(node, key, value, std::move(cb));
      });
      return;
    }
    pool_->Unpin(node->id, false);
    DescendPut(child, key, value, std::move(cb));
  });
}

// --- Get / Delete ------------------------------------------------------------

void BTree::Get(std::uint64_t key, GetCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("gets");
  // Iterative descent via a self-referential closure.
  auto step = std::make_shared<std::function<void(PageId)>>();
  *step = [this, key, cb = std::move(cb), step](PageId id) mutable {
    pool_->Pin(id, [this, id, key, cb, step](StatusOr<Frame*> f) mutable {
      if (!f.ok()) {
        cb(f.status());
        *step = nullptr;
        return;
      }
      Frame* node = *f;
      if (NodeType(node) == PageType::kBTreeLeaf) {
        const std::uint32_t pos = LeafLowerBound(node, key);
        StatusOr<std::uint64_t> result =
            (pos < NodeCount(node) && LeafKey(node, pos) == key)
                ? StatusOr<std::uint64_t>(LeafValue(node, pos))
                : StatusOr<std::uint64_t>(
                      Status::NotFound("key " + std::to_string(key)));
        pool_->Unpin(id, false);
        cb(std::move(result));
        *step = nullptr;
        return;
      }
      const PageId child = InternalChild(node, InternalFindIndex(node, key));
      pool_->Unpin(id, false);
      (*step)(child);
    });
  };
  (*step)(root_);
}

void BTree::Delete(std::uint64_t key, StatusCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("deletes");
  auto step = std::make_shared<std::function<void(PageId)>>();
  *step = [this, key, cb = std::move(cb), step](PageId id) mutable {
    pool_->Pin(id, [this, id, key, cb, step](StatusOr<Frame*> f) mutable {
      if (!f.ok()) {
        cb(f.status());
        *step = nullptr;
        return;
      }
      Frame* node = *f;
      if (NodeType(node) == PageType::kBTreeLeaf) {
        const std::uint32_t pos = LeafLowerBound(node, key);
        bool removed = false;
        if (pos < NodeCount(node) && LeafKey(node, pos) == key) {
          LeafRemoveAt(node, pos);
          removed = true;
        }
        pool_->Unpin(id, removed);
        cb(Status::Ok());
        *step = nullptr;
        return;
      }
      const PageId child = InternalChild(node, InternalFindIndex(node, key));
      pool_->Unpin(id, false);
      (*step)(child);
    });
  };
  (*step)(root_);
}

// --- Scan ---------------------------------------------------------------------

void BTree::Scan(std::uint64_t lo, std::uint64_t hi, ScanCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("scans");
  auto results = std::make_shared<
      std::vector<std::pair<std::uint64_t, std::uint64_t>>>();

  auto walk = std::make_shared<std::function<void(PageId)>>();
  auto descend = std::make_shared<std::function<void(PageId)>>();

  *walk = [this, lo, hi, results, cb, walk](PageId id) mutable {
    if (id == kInvalidPageId) {
      cb(std::move(*results));
      *walk = nullptr;
      return;
    }
    pool_->Pin(id, [this, id, lo, hi, results, cb,
                    walk](StatusOr<Frame*> f) mutable {
      if (!f.ok()) {
        cb(f.status());
        *walk = nullptr;
        return;
      }
      Frame* leaf = *f;
      bool past_hi = false;
      for (std::uint32_t i = 0; i < NodeCount(leaf); ++i) {
        const std::uint64_t k = LeafKey(leaf, i);
        if (k < lo) continue;
        if (k > hi) {
          past_hi = true;
          break;
        }
        results->emplace_back(k, LeafValue(leaf, i));
      }
      const PageId next = past_hi ? kInvalidPageId : LeafNext(leaf);
      pool_->Unpin(id, false);
      (*walk)(next);
    });
  };

  *descend = [this, lo, cb, walk, descend](PageId id) mutable {
    pool_->Pin(id, [this, id, lo, cb, walk,
                    descend](StatusOr<Frame*> f) mutable {
      if (!f.ok()) {
        cb(f.status());
        *walk = nullptr;
        *descend = nullptr;
        return;
      }
      Frame* node = *f;
      if (NodeType(node) == PageType::kBTreeLeaf) {
        pool_->Unpin(id, false);
        (*walk)(id);
        *descend = nullptr;
        return;
      }
      const PageId child = InternalChild(node, InternalFindIndex(node, lo));
      pool_->Unpin(id, false);
      (*descend)(child);
    });
  };
  (*descend)(root_);
}

}  // namespace postblock::db

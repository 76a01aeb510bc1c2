#include "src/io/index_io.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/index/node.h"
#include "src/util/check.h"

namespace mst {
namespace {

constexpr char kMagic[8] = {'M', 'S', 'T', 'I', 'D', 'X', '0', '1'};

struct FileCloser {
  void operator()(FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

// Fixed-size header following the magic.
struct Header {
  int64_t page_count = 0;
  PageId root = kInvalidPageId;
  int32_t height = 0;
  int64_t entry_count = 0;
  double max_speed = 0.0;
  char name[32] = {};
};
static_assert(std::is_trivially_copyable_v<Header>);

/// Read-only deserialized index: pages restored verbatim; insertion state
/// (chains, rightmost paths) is gone, so Insert aborts.
class LoadedIndex : public TrajectoryIndex {
 public:
  LoadedIndex(const Options& options, std::string name)
      : TrajectoryIndex(options), name_(std::move(name)) {}

  void Insert(const LeafEntry&) override {
    MST_CHECK_MSG(false, "a loaded index is read-only");
  }

  std::string name() const override { return name_; }

  void Restore(const Header& header, const std::vector<Page>& pages) {
    for (const Page& page : pages) {
      const PageId id = buffer().AllocatePage();
      PageGuard guard = buffer().PinMutable(id);
      *guard.mutable_page() = page;
    }
    buffer().Flush();
    set_root(header.root);
    set_height(header.height);
    RestoreStats(header.entry_count, header.max_speed);
  }

 private:
  std::string name_;
};

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

// Walks the tree from the root over pages that already passed
// ValidateNodePage, so a query can neither pin a page outside the file, nor
// loop, nor prune a subtree on a box that does not cover it: every child id
// must lie in [0, page_count), every child must sit exactly one level below
// its parent (levels strictly decrease, which also rules out cycles), every
// parent entry's box must contain its child's contents, and every leaf's
// stored box must contain each of its segments. Each page is expanded once.
// Empty string when sound, else the first problem found.
std::string ValidateTreeShape(const Header& header,
                              const std::vector<Page>& pages) {
  if (header.page_count == 0) return "";
  const int32_t root_level = NodePageLevel(pages[header.root]);
  if (root_level != header.height - 1) {
    return "root page " + std::to_string(header.root) + " has level " +
           std::to_string(root_level) + ", expected height - 1 = " +
           std::to_string(header.height - 1);
  }
  std::vector<bool> expanded(pages.size(), false);
  std::vector<PageId> pending = {header.root};
  expanded[header.root] = true;
  while (!pending.empty()) {
    const PageId id = pending.back();
    pending.pop_back();
    const IndexNode node = IndexNode::Decode(pages[id], id);
    if (node.IsLeaf()) {
      for (size_t i = 0; i < node.leaves.size(); ++i) {
        if (!node.leaves.bounds().Contains(node.leaves[i].Bounds())) {
          return "page " + std::to_string(id) + ": entry " +
                 std::to_string(i) + " lies outside the leaf's stored box";
        }
      }
      continue;
    }
    for (const InternalEntry& e : node.internals) {
      const auto edge = [&] {
        return "page " + std::to_string(id) + ": child page " +
               std::to_string(e.child);
      };
      if (e.child < 0 || e.child >= header.page_count) {
        return edge() + " outside [0, " + std::to_string(header.page_count) +
               ")";
      }
      const int32_t child_level = NodePageLevel(pages[e.child]);
      if (child_level != node.level - 1) {
        return edge() + " has level " + std::to_string(child_level) +
               ", expected " + std::to_string(node.level - 1);
      }
      // An empty child is contained trivially, whatever box it stores.
      const IndexNode child = IndexNode::Decode(pages[e.child], e.child);
      if (child.Count() > 0 && !e.mbb.Contains(child.Bounds())) {
        return edge() + " lies outside its parent entry's box";
      }
      if (!expanded[e.child]) {
        expanded[e.child] = true;
        pending.push_back(e.child);
      }
    }
  }
  return "";
}

}  // namespace

bool SaveIndex(const TrajectoryIndex& index, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) return false;

  // Make sure every dirty frame is on the simulated disk first.
  index.buffer().Flush();

  Header header;
  header.page_count = index.NodeCount();
  header.root = index.root();
  header.height = index.height();
  header.entry_count = index.EntryCount();
  header.max_speed = index.max_speed();
  const std::string name = index.name();
  std::strncpy(header.name, name.c_str(), sizeof(header.name) - 1);

  if (std::fwrite(kMagic, 1, sizeof(kMagic), file.get()) != sizeof(kMagic)) {
    return false;
  }
  if (std::fwrite(&header, 1, sizeof(header), file.get()) != sizeof(header)) {
    return false;
  }
  // Page payload, read through the buffer so accounting stays consistent.
  for (PageId id = 0; id < header.page_count; ++id) {
    const PageGuard page = index.buffer().Pin(id);
    if (std::fwrite(page->bytes.data(), 1, kPageSize, file.get()) !=
        kPageSize) {
      return false;
    }
  }
  return std::fflush(file.get()) == 0;
}

std::unique_ptr<TrajectoryIndex> LoadIndex(const std::string& path,
                                           std::string* error) {
  return LoadIndex(path, TrajectoryIndex::Options(), error);
}

std::unique_ptr<TrajectoryIndex> LoadIndex(
    const std::string& path, const TrajectoryIndex::Options& options,
    std::string* error) {
  if (options.build_buffer_pages == 0) {
    SetError(error, path +
                        ": invalid open options: build_buffer_pages must be "
                        "at least 1");
    return nullptr;
  }
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    SetError(error, "cannot open " + path);
    return nullptr;
  }
  char magic[sizeof(kMagic)];
  if (std::fread(magic, 1, sizeof(magic), file.get()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    SetError(error, path + ": not an index file");
    return nullptr;
  }
  Header header;
  if (std::fread(&header, 1, sizeof(header), file.get()) != sizeof(header)) {
    SetError(error, path + ": truncated header");
    return nullptr;
  }
  if (header.page_count < 0 || header.height < 0 ||
      (header.page_count > 0 &&
       (header.root < 0 || header.root >= header.page_count)) ||
      (header.page_count == 0 &&
       (header.root != kInvalidPageId || header.height != 0))) {
    SetError(error, path + ": corrupt header");
    return nullptr;
  }
  if (header.entry_count < 0 || !std::isfinite(header.max_speed) ||
      header.max_speed < 0.0) {
    SetError(error, path + ": corrupt header (entry count / max speed)");
    return nullptr;
  }
  std::vector<Page> pages(static_cast<size_t>(header.page_count));
  for (Page& page : pages) {
    if (std::fread(page.bytes.data(), 1, kPageSize, file.get()) !=
        kPageSize) {
      SetError(error, path + ": truncated page payload");
      return nullptr;
    }
  }
  char extra;
  if (std::fread(&extra, 1, 1, file.get()) == 1) {
    SetError(error, path + ": trailing bytes after page payload");
    return nullptr;
  }
  // Every page, and then the tree over them, is validated up front instead
  // of trusted: a bad format byte or entry count would otherwise abort the
  // first query that decodes the page, and a bad child id would abort (out
  // of range) or hang (a cycle) the first traversal.
  for (size_t i = 0; i < pages.size(); ++i) {
    const std::string problem = ValidateNodePage(pages[i]);
    if (!problem.empty()) {
      SetError(error, path + ": page " + std::to_string(i) + ": " + problem);
      return nullptr;
    }
  }
  const std::string shape = ValidateTreeShape(header, pages);
  if (!shape.empty()) {
    SetError(error, path + ": " + shape);
    return nullptr;
  }
  header.name[sizeof(header.name) - 1] = '\0';
  auto index = std::make_unique<LoadedIndex>(
      options, std::string(header.name) + " (loaded)");
  index->Restore(header, pages);
  return index;
}

}  // namespace mst

#include "src/io/index_io.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/index/leaf_codec_v3.h"
#include "src/index/node.h"
#include "src/index/node_codec_v3.h"
#include "src/util/check.h"

namespace mst {
namespace {

constexpr char kMagic[8] = {'M', 'S', 'T', 'I', 'D', 'X', '0', '1'};

const char* FormatName(LeafPageFormat format) {
  switch (format) {
    case LeafPageFormat::kV2Soa:
      return "v2 (SoA)";
    case LeafPageFormat::kV3Compressed:
      return "v3 (compressed)";
  }
  return "unknown";
}

const char* FormatName(InternalPageFormat format) {
  switch (format) {
    case InternalPageFormat::kV1Aos:
      return "v1 (AoS)";
    case InternalPageFormat::kV3Compressed:
      return "v3 (compressed)";
  }
  return "unknown";
}

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
  return LoadIndex(path, IndexOpenOptions(), error);
}

std::unique_ptr<TrajectoryIndex> LoadIndex(const std::string& path,
                                           const IndexOpenOptions& options,
                                           std::string* error) {
  if (options.index.build_buffer_pages == 0) {
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
       (header.root < 0 || header.root >= header.page_count))) {
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
  // Every page is validated up front instead of trusted: a bad format byte
  // or entry count would otherwise abort the first query that decodes the
  // page, or send the zero-copy leaf path reading past the page.
  for (size_t i = 0; i < pages.size(); ++i) {
    const std::string problem = ValidateNodePage(pages[i]);
    if (!problem.empty()) {
      SetError(error, path + ": page " + std::to_string(i) + ": " + problem);
      return nullptr;
    }
  }
  if (options.read_write) {
    // Read-write can never be honored (insertion state is not persisted);
    // diagnose the most actionable mismatch first. A write format differing
    // from what the file's leaves actually store would corrupt the
    // page-format invariants long before the missing chains mattered, so
    // that case gets its own message. A v3 file legitimately contains v2
    // fallback pages for incompressible leaves, so any v3 leaf marks the
    // whole file v3.
    bool file_has_v3_leaf = false;
    bool file_has_v3_internal = false;
    for (const Page& page : pages) {
      if (IsV3LeafPage(page)) file_has_v3_leaf = true;
      else if (IsV3InternalPage(page)) file_has_v3_internal = true;
    }
    const LeafPageFormat file_format = file_has_v3_leaf
                                           ? LeafPageFormat::kV3Compressed
                                           : LeafPageFormat::kV2Soa;
    if (header.page_count > 0 && options.index.leaf_format != file_format) {
      SetError(error, path + ": cannot open read-write: requested " +
                          FormatName(options.index.leaf_format) +
                          " leaf writes, but the file stores " +
                          FormatName(file_format) +
                          " leaf pages; open read-only or rebuild the index "
                          "in the requested format");
      return nullptr;
    }
    // Same story for internal pages (v3 internal files legitimately contain
    // v1 fallback pages for incompressible nodes, so any v3 internal page
    // marks the file v3-internal).
    const InternalPageFormat file_internal_format =
        file_has_v3_internal ? InternalPageFormat::kV3Compressed
                             : InternalPageFormat::kV1Aos;
    if (header.page_count > 0 &&
        options.index.internal_format != file_internal_format) {
      SetError(error,
               path + ": cannot open read-write: requested " +
                   FormatName(options.index.internal_format) +
                   " internal-node writes, but the file stores " +
                   FormatName(file_internal_format) +
                   " internal pages; open read-only or rebuild the index "
                   "in the requested format");
      return nullptr;
    }
    SetError(error,
             path +
                 ": cannot open read-write: a saved index holds no "
                 "insertion state (trajectory chains, rightmost paths); "
                 "open read-only, or rebuild from the trajectory store to "
                 "mutate");
    return nullptr;
  }
  header.name[sizeof(header.name) - 1] = '\0';
  auto index = std::make_unique<LoadedIndex>(
      options.index, std::string(header.name) + " (loaded)");
  index->Restore(header, pages);
  return index;
}

}  // namespace mst

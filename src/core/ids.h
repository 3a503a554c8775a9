// Strongly-typed identifiers for every entity in a SoftMoW network.
//
// All IDs share one representation (64-bit value + tag type) so they are
// cheap to copy, hashable, and totally ordered, while remaining mutually
// incompatible at compile time: a SwitchId cannot be passed where a BsId is
// expected.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <ostream>
#include <string>

namespace softmow {

/// A 64-bit identifier tagged with a phantom type.
///
/// `Tag` distinguishes ID families; it is never instantiated. The value
/// `kInvalid` (all ones) is reserved for "no entity".
template <class Tag>
struct Id {
  static constexpr std::uint64_t kInvalid = std::numeric_limits<std::uint64_t>::max();

  std::uint64_t value{kInvalid};

  constexpr Id() = default;
  constexpr explicit Id(std::uint64_t v) : value(v) {}

  /// True iff this ID refers to an actual entity.
  [[nodiscard]] constexpr bool valid() const { return value != kInvalid; }

  friend constexpr auto operator<=>(const Id&, const Id&) = default;

  friend std::ostream& operator<<(std::ostream& os, const Id& id) {
    if (!id.valid()) return os << Tag::prefix() << "<invalid>";
    return os << Tag::prefix() << id.value;
  }

  [[nodiscard]] std::string str() const {
    // Built piecewise: GCC 12 emits a -Wrestrict false positive on the
    // char*+string(&&) concatenation chain under heavy inlining.
    std::string s(Tag::prefix());
    if (!valid()) {
      s += "<invalid>";
    } else {
      s += std::to_string(value);
    }
    return s;
  }
};

// Tag types. Each carries a short printable prefix for debugging.
struct SwitchTag     { static constexpr const char* prefix() { return "sw";  } };
struct PortTag       { static constexpr const char* prefix() { return "p";   } };
struct LinkTag       { static constexpr const char* prefix() { return "ln";  } };
struct ControllerTag { static constexpr const char* prefix() { return "c";   } };
struct BsTag         { static constexpr const char* prefix() { return "bs";  } };
struct BsGroupTag    { static constexpr const char* prefix() { return "bg";  } };
struct GBsTag        { static constexpr const char* prefix() { return "gbs"; } };
struct MiddleboxTag  { static constexpr const char* prefix() { return "mb";  } };
struct UeTag         { static constexpr const char* prefix() { return "ue";  } };
struct RegionTag     { static constexpr const char* prefix() { return "rg";  } };
struct PathTag       { static constexpr const char* prefix() { return "pth"; } };
struct BearerTag     { static constexpr const char* prefix() { return "br";  } };
struct PrefixTag     { static constexpr const char* prefix() { return "px";  } };
struct XidTag        { static constexpr const char* prefix() { return "x";   } };
struct EgressTag     { static constexpr const char* prefix() { return "eg";  } };
struct SliceTag      { static constexpr const char* prefix() { return "sl";  } };

/// Identifies a physical switch or a gigantic (logical) switch.
using SwitchId = Id<SwitchTag>;
/// A port number, local to one switch.
using PortId = Id<PortTag>;
/// Identifies a (physical or logical) link.
using LinkId = Id<LinkTag>;
/// Globally unique controller ID (paper §3.1).
using ControllerId = Id<ControllerTag>;
/// A physical base station.
using BsId = Id<BsTag>;
/// A base-station group (paper §2.1).
using BsGroupId = Id<BsGroupTag>;
/// A gigantic base station exposed by RecA (paper §3.1).
using GBsId = Id<GBsTag>;
/// A middlebox instance or gigantic middlebox.
using MiddleboxId = Id<MiddleboxTag>;
/// A user equipment (subscriber device).
using UeId = Id<UeTag>;
/// A logical region managed by one controller.
using RegionId = Id<RegionTag>;
/// An implemented path (returned by PathSetup).
using PathId = Id<PathTag>;
/// A radio bearer.
using BearerId = Id<BearerTag>;
/// A destination address prefix on the Internet.
using PrefixId = Id<PrefixTag>;
/// Transaction ID for request/reply southbound messages.
using Xid = Id<XidTag>;
/// An Internet egress point (peering with an ISP / content provider).
using EgressId = Id<EgressTag>;
/// A network slice (virtual operator tenant sharing the physical WAN).
using SliceId = Id<SliceTag>;

/// A (switch, port) pair — one end of a link.
template <class SwitchIdT = SwitchId>
struct EndpointT {
  SwitchIdT sw;
  PortId port;

  friend constexpr auto operator<=>(const EndpointT&, const EndpointT&) = default;

  friend std::ostream& operator<<(std::ostream& os, const EndpointT& e) {
    return os << "(" << e.sw << "," << e.port << ")";
  }
};
using Endpoint = EndpointT<>;

/// Monotonic ID allocator: hands out 0, 1, 2, ...
template <class IdT>
class IdAllocator {
 public:
  constexpr IdAllocator() = default;
  constexpr explicit IdAllocator(std::uint64_t first) : next_(first) {}

  IdT allocate() { return IdT{next_++}; }

  /// Ensures future allocations are strictly greater than `floor`.
  void reserve_through(IdT floor) {
    if (floor.valid() && floor.value >= next_) next_ = floor.value + 1;
  }

 private:
  std::uint64_t next_ = 0;
};

}  // namespace softmow

namespace std {
template <class Tag>
struct hash<softmow::Id<Tag>> {
  size_t operator()(const softmow::Id<Tag>& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value);
  }
};
template <class S>
struct hash<softmow::EndpointT<S>> {
  size_t operator()(const softmow::EndpointT<S>& e) const noexcept {
    size_t h1 = std::hash<S>{}(e.sw);
    size_t h2 = std::hash<softmow::PortId>{}(e.port);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ull + (h1 << 6) + (h1 >> 2));
  }
};
}  // namespace std

#include "src/core/dataflow.hh"

#include <sstream>

#include "src/common/error.hh"

namespace maestro
{

std::string
SizeExpr::toString() const
{
    std::ostringstream os;
    if (dim) {
        if (constant != 0)
            os << constant << "+";
        os << "Sz(" << dimName(*dim) << ")";
    } else {
        os << constant;
    }
    return os.str();
}

Directive
Directive::temporal(Dim dim, SizeExpr size, SizeExpr offset)
{
    return {DirectiveKind::TemporalMap, dim, size, offset};
}

Directive
Directive::spatial(Dim dim, SizeExpr size, SizeExpr offset)
{
    return {DirectiveKind::SpatialMap, dim, size, offset};
}

Directive
Directive::cluster(SizeExpr size)
{
    return {DirectiveKind::Cluster, Dim::N, size, SizeExpr::of(0)};
}

std::string
Directive::toString() const
{
    std::ostringstream os;
    switch (kind) {
      case DirectiveKind::TemporalMap:
        os << "TemporalMap(" << size.toString() << "," << offset.toString()
           << ") " << dimName(dim);
        break;
      case DirectiveKind::SpatialMap:
        os << "SpatialMap(" << size.toString() << "," << offset.toString()
           << ") " << dimName(dim);
        break;
      case DirectiveKind::Cluster:
        os << "Cluster(" << size.toString() << ")";
        break;
    }
    return os.str();
}

Dataflow::Dataflow(std::string name)
    : name_(std::move(name))
{
}

Dataflow::Dataflow(std::string name, std::vector<Directive> directives)
    : name_(std::move(name)), directives_(std::move(directives))
{
}

Dataflow &
Dataflow::add(Directive directive)
{
    directives_.push_back(directive);
    return *this;
}

void
Dataflow::setMapSize(std::size_t index, SizeExpr size, SizeExpr offset)
{
    panicIf(index >= directives_.size() ||
                directives_[index].kind == DirectiveKind::Cluster,
            "setMapSize: directive ", index, " of ", directives_.size(),
            " is not a map");
    directives_[index].size = size;
    directives_[index].offset = offset;
}

std::size_t
Dataflow::numLevels() const
{
    std::size_t levels = 1;
    for (const auto &d : directives_) {
        if (d.kind == DirectiveKind::Cluster)
            ++levels;
    }
    return levels;
}

void
Dataflow::validate() const
{
    fatalIf(directives_.empty(), "dataflow ", name_, ": no directives");
    fatalIf(directives_.back().kind == DirectiveKind::Cluster, "dataflow ", name_,
                ": Cluster must be followed by map directives");

    DimMap<bool> seen(false);
    bool level_has_map = false;
    std::size_t level = 0;
    auto check_level_end = [&]() {
        fatalIf(!level_has_map, "dataflow ", name_, ": cluster level ", level,
                    " has no map directives");
    };
    for (const auto &d : directives_) {
        if (d.kind == DirectiveKind::Cluster) {
            check_level_end();
            seen = DimMap<bool>(false);
            level_has_map = false;
            ++level;
            if (!d.size.dim) {
                fatalIf(d.size.constant <= 0, "dataflow ", name_,
                            ": Cluster size must be positive");
            }
            continue;
        }
        level_has_map = true;
        fatalIf(seen[d.dim], "dataflow ", name_, ": dimension ", dimName(d.dim),
                    " mapped twice in cluster level ", level);
        seen[d.dim] = true;
        if (!d.size.dim) {
            fatalIf(d.size.constant <= 0, "dataflow ", name_, ": map size for ",
                        dimName(d.dim), " must be positive");
        }
        if (!d.offset.dim) {
            fatalIf(d.offset.constant <= 0, "dataflow ", name_, ": map offset for ",
                        dimName(d.dim), " must be positive");
        }
    }
    check_level_end();
}

std::string
Dataflow::toString() const
{
    std::ostringstream os;
    for (const auto &d : directives_)
        os << d.toString() << ";\n";
    return os.str();
}

bool
Dataflow::sameDirectives(const Dataflow &other) const
{
    return directives_ == other.directives_;
}

} // namespace maestro

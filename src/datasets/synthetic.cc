#include "datasets/synthetic.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/sorted_ops.h"

namespace scpm {
namespace {

Status ValidateConfig(const SyntheticConfig& c) {
  if (c.num_vertices < c.community_max_size) {
    return Status::InvalidArgument("num_vertices < community_max_size");
  }
  if (c.community_min_size > c.community_max_size) {
    return Status::InvalidArgument("community_min_size > community_max_size");
  }
  if (c.powerlaw_exponent <= 2.0) {
    return Status::InvalidArgument("powerlaw_exponent must be > 2");
  }
  if (c.vocab_size == 0) {
    return Status::InvalidArgument("vocab_size must be > 0");
  }
  if (c.num_topics == 0 || c.topic_size == 0) {
    return Status::InvalidArgument("need at least one topic attribute");
  }
  return Status::OK();
}

}  // namespace

Result<SyntheticDataset> GenerateSynthetic(const SyntheticConfig& config) {
  SCPM_RETURN_IF_ERROR(ValidateConfig(config));
  Rng rng(config.seed);

  // --- Topology: power-law background + planted communities. ---
  Result<Graph> background = ChungLu(
      PowerLawWeights(config.num_vertices, config.powerlaw_exponent,
                      config.avg_degree),
      rng);
  if (!background.ok()) return background.status();
  std::vector<Edge> edges = background->Edges();
  std::vector<PlantedGroup> communities = PlantGroups(
      config.num_vertices, config.num_communities, config.community_min_size,
      config.community_max_size, config.community_density, rng, &edges);

  AttributedGraphBuilder builder(config.num_vertices);
  for (const Edge& e : edges) builder.AddEdge(e.u, e.v);

  // --- Topics: attribute sets "t<i>_<j>". ---
  std::vector<AttributeSet> topics(config.num_topics);
  for (std::size_t t = 0; t < config.num_topics; ++t) {
    for (std::size_t j = 0; j < config.topic_size; ++j) {
      std::string name = "t";
      name.append(std::to_string(t)).append("_").append(std::to_string(j));
      topics[t].push_back(builder.InternAttribute(name));
    }
    SortUnique(&topics[t]);
  }

  // Community members carry their topic's attributes with high affinity.
  std::vector<std::size_t> community_topic(communities.size());
  for (std::size_t c = 0; c < communities.size(); ++c) {
    const std::size_t t = c % config.num_topics;
    community_topic[c] = t;
    for (VertexId v : communities[c].members) {
      for (AttributeId a : topics[t]) {
        if (rng.NextBool(config.topic_affinity)) {
          SCPM_RETURN_IF_ERROR(builder.AddVertexAttribute(v, a));
        }
      }
    }
  }
  // Topic noise: random vertices also carry topic attributes, inflating
  // support beyond the communities.
  if (config.topic_noise > 0.0) {
    for (VertexId v = 0; v < config.num_vertices; ++v) {
      for (const AttributeSet& topic : topics) {
        for (AttributeId a : topic) {
          if (rng.NextBool(config.topic_noise)) {
            SCPM_RETURN_IF_ERROR(builder.AddVertexAttribute(v, a));
          }
        }
      }
    }
  }

  // --- Background vocabulary: Zipf-popular filler words "w<i>". ---
  // Each word r has an independent per-vertex probability
  //   p_r = min(filler_max_frequency, C (r+1)^{-zipf_exponent})
  // with C normalizing the expected attribute count per vertex to
  // attrs_per_vertex. The cap keeps head terms at realistic frequencies
  // (the paper's most frequent term covers ~5% of DBLP).
  std::vector<AttributeId> vocab(config.vocab_size);
  std::vector<double> word_probability(config.vocab_size);
  double zipf_mass = 0.0;
  for (std::size_t w = 0; w < config.vocab_size; ++w) {
    vocab[w] =
        builder.InternAttribute(std::string("w").append(std::to_string(w)));
    zipf_mass += std::pow(static_cast<double>(w) + 1.0,
                          -config.zipf_exponent);
  }
  const double normalizer =
      static_cast<double>(config.attrs_per_vertex) / zipf_mass;
  for (std::size_t w = 0; w < config.vocab_size; ++w) {
    word_probability[w] = std::min(
        config.filler_max_frequency,
        normalizer * std::pow(static_cast<double>(w) + 1.0,
                              -config.zipf_exponent));
  }
  for (VertexId v = 0; v < config.num_vertices; ++v) {
    for (std::size_t w = 0; w < config.vocab_size; ++w) {
      if (word_probability[w] < 1e-4) break;  // Negligible tail.
      if (rng.NextBool(word_probability[w])) {
        SCPM_RETURN_IF_ERROR(builder.AddVertexAttribute(v, vocab[w]));
      }
    }
  }
  // Communities adopt a few generic words: the source of the paper's
  // "popular term with small but nonzero eps" head rows.
  for (const PlantedGroup& community : communities) {
    for (std::size_t i = 0; i < config.community_common_words; ++i) {
      const std::size_t w = static_cast<std::size_t>(
          rng.NextZipf(config.vocab_size, config.zipf_exponent) - 1);
      for (VertexId v : community.members) {
        if (rng.NextBool(config.community_word_affinity)) {
          SCPM_RETURN_IF_ERROR(builder.AddVertexAttribute(v, vocab[w]));
        }
      }
    }
  }

  Result<AttributedGraph> graph = builder.Build();
  if (!graph.ok()) return graph.status();

  SyntheticDataset dataset;
  dataset.graph = std::move(graph).value();
  dataset.communities = std::move(communities);
  dataset.topics = std::move(topics);
  dataset.community_topic = std::move(community_topic);
  return dataset;
}

SyntheticConfig DblpLikeConfig(double scale) {
  // Sparse collaboration network: avg degree ~5, mid-size communities
  // (research groups), modest vocabulary of title terms.
  SyntheticConfig c;
  c.num_vertices = static_cast<VertexId>(3000 * scale);
  c.avg_degree = 5.0;
  c.powerlaw_exponent = 2.6;
  c.num_communities = static_cast<std::size_t>(60 * scale);
  c.community_min_size = 10;
  c.community_max_size = 18;
  c.community_density = 0.75;
  c.vocab_size = 500;
  c.zipf_exponent = 1.9;
  c.attrs_per_vertex = 5;
  c.num_topics = 15;
  c.topic_size = 2;
  c.topic_affinity = 0.9;
  c.topic_noise = 0.015;
  c.seed = 20120827;
  return c;
}

SyntheticConfig LastFmLikeConfig(double scale) {
  // Very sparse friendship graph (avg degree ~2.6 in the crawl), a large
  // attribute universe (artists), smaller communities.
  SyntheticConfig c;
  c.num_vertices = static_cast<VertexId>(4000 * scale);
  c.avg_degree = 2.6;
  c.powerlaw_exponent = 2.4;
  c.num_communities = static_cast<std::size_t>(80 * scale);
  c.community_min_size = 5;
  c.community_max_size = 12;
  c.community_density = 0.7;
  c.vocab_size = 1200;
  c.zipf_exponent = 1.6;
  c.attrs_per_vertex = 8;
  c.num_topics = 20;
  c.topic_size = 2;
  c.topic_affinity = 0.85;
  c.topic_noise = 0.02;
  c.seed = 19450121;
  return c;
}

SyntheticConfig CiteSeerLikeConfig(double scale) {
  // Citation graph: denser (avg degree ~5.3), strong topical clustering.
  SyntheticConfig c;
  c.num_vertices = static_cast<VertexId>(3500 * scale);
  c.avg_degree = 5.3;
  c.powerlaw_exponent = 2.7;
  c.num_communities = static_cast<std::size_t>(70 * scale);
  c.community_min_size = 5;
  c.community_max_size = 15;
  c.community_density = 0.8;
  c.vocab_size = 700;
  c.zipf_exponent = 1.8;
  c.attrs_per_vertex = 6;
  c.num_topics = 18;
  c.topic_size = 2;
  c.topic_affinity = 0.9;
  c.topic_noise = 0.02;
  c.seed = 20100301;
  return c;
}

SyntheticConfig SmallDblpConfig(double scale) {
  // The §4.2 performance dataset (SmallDBLP): same shape as DblpLike but
  // smaller, with min_size around 11 communities to exercise the sweeps.
  SyntheticConfig c = DblpLikeConfig(scale * 0.5);
  c.community_min_size = 11;
  c.community_max_size = 16;
  c.num_communities = static_cast<std::size_t>(40 * scale);
  c.seed = 32908;
  return c;
}

}  // namespace scpm

